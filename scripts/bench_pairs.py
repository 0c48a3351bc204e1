#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and summarise
the end-to-end metrics.

    python3 scripts/bench_pairs.py --parent REV [--change REV] \\
        --workload W --seeds A-B [--json FILE]

For each seed, both revisions are exported fresh with ``git archive``
into a temporary directory and ``bench/run.py --trace 0`` runs in each
export, the parent first on even-numbered pairs and the change first on
odd ones, each for ``run_seconds`` from ``BENCHMARK.json``.  The script
refuses to run when ``bench/`` or ``BENCHMARK.json`` differ between the
two revisions, since the benchmark itself would then differ.  It prints,
for each end-to-end metric, the per-pair values, both medians, both
quartile ranges and the number of pairs the change wins.  With
``--json FILE`` it also stores that summary, with the revisions, seeds,
every pair's result line and the Python version, under the workload's
name in FILE, keeping the other workloads already there.  Standard
library only; nothing else is written in the checkout.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# what decides the benchmark: it must be the same on both sides
BENCH_FILES = ("bench", "BENCHMARK.json")


def export(rev, dest):
    """Write the files of revision ``rev`` of this repository into dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)


def commit(rev):
    """The commit id that ``rev`` names in this repository."""
    return subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                          capture_output=True, check=True, text=True).stdout.strip()


def tree_digest(root, names=BENCH_FILES):
    """sha256 over the relative paths and bytes of the files under names."""
    digest = hashlib.sha256()
    paths = []
    for name in names:
        top = os.path.join(root, name)
        if os.path.isfile(top):
            paths.append(top)
        for base, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_bench(directory, workload, seed, seconds):
    """The result line of one end-to-end run, or None when it failed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"seed {seed}: bench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(metrics, pairs):
    """For each end-to-end metric of ``BENCHMARK.json``, its values in the
    complete pairs of ``pairs`` (a list of (seed, parent result, change
    result) with results as ``bench/run.py`` prints them), their medians
    and quartiles, and the number of pairs the change wins."""
    done = [(p, c) for _, p, c in pairs if p and c]
    rows = []
    for metric in metrics if done else ():
        name, lower = metric["name"], metric["better"] == "lower"
        old = [p["metrics"][name]["value"] for p, _ in done]
        new = [c["metrics"][name]["value"] for _, c in done]
        rows.append({
            **metric,
            "parent": old,
            "change": new,
            "medians": [statistics.median(old), statistics.median(new)],
            "quartiles": [list(quartiles(old)), list(quartiles(new))],
            "wins": sum((n < o) if lower else (n > o) for o, n in zip(old, new)),
        })
    return rows


def summarize(metrics, pairs):
    """Report lines for ``pairs`` over the end-to-end ``metrics``; see
    ``compare``."""
    done = [s for s, p, c in pairs if p and c]
    lines = [f"seeds {' '.join(str(s) for s, _, _ in pairs)}; "
             f"{len(done)} complete pairs"]
    for side, index in (("parent", 1), ("change", 2)):
        runs = [pair[index] for pair in pairs if pair[index]]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines.append(f"{side}: {len(pairs) - len(runs)} runs failed, "
                     f"{failed} of {attempted} operations failed")
    rows = compare(metrics, pairs)
    if not rows:
        return lines
    lines.append(f"{'metric':<16} {'parent':>10} {'change':>10} {'delta':>8} "
                 f"{'parent IQR':>10} {'change IQR':>10} {'wins':>6}")
    details = []
    for row in rows:
        m_old, m_new = row["medians"]
        iqrs = [q3 - q1 for q1, q3 in row["quartiles"]]
        delta = (m_new - m_old) / m_old if m_old else float("nan")
        lines.append(f"{row['name']:<16} {m_old:>10.4g} {m_new:>10.4g} {delta:>+8.1%} "
                     f"{iqrs[0]:>10.4g} {iqrs[1]:>10.4g} {row['wins']:>3}/{len(done)}")
        details.append(f"{row['name']} ({row['unit']}, {row['better']} is better): "
                       + "/".join(f"{v:.4g}" for v in row["parent"]) + " -> "
                       + "/".join(f"{v:.4g}" for v in row["change"]))
    return lines + details


def summary_record(workload, revisions, seconds, metrics, pairs):
    """The summary that ``--json`` stores: ``revisions`` maps each side to
    its revision and commit; ``pairs`` is as for ``compare``."""
    return {
        "workload": workload,
        "revisions": revisions,
        "seconds": seconds,
        "python": platform.python_version(),
        "seeds": [seed for seed, _, _ in pairs],
        "pairs": [{"seed": seed, "parent": p, "change": c} for seed, p, c in pairs],
        "metrics": compare(metrics, pairs),
    }


def store(path, record):
    """Write ``record`` under its workload into the JSON file at path,
    keeping the workloads stored there before."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"workloads": {}}
    doc["workloads"][record["workload"]] = record
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="alternating benchmark pairs of two revisions")
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--change", default="HEAD", help="the revision measured (HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    ap.add_argument("--json", metavar="FILE",
                    help="also store the summary under the workload's name in FILE")
    args = ap.parse_args(argv)

    revs = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory() as tmp:
        for side, rev in revs.items():
            try:
                export(rev, os.path.join(tmp, side))
            except subprocess.CalledProcessError as exc:
                print(f"cannot export {rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
                return 2
        if tree_digest(os.path.join(tmp, "parent")) != tree_digest(os.path.join(tmp, "change")):
            print("bench/ or BENCHMARK.json differ between the two revisions",
                  file=sys.stderr)
            return 2
        with open(os.path.join(tmp, "parent", "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        seconds = declared["run_seconds"]
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            result = {}
            for side in order:
                work = os.path.join(tmp, f"{side}-{seed}")
                export(revs[side], work)
                result[side] = run_bench(work, args.workload, seed, seconds)
            pairs.append((seed, result["parent"], result["change"]))
    print(f"{args.workload}: parent {args.parent}, change {args.change}, {seconds:g} s per run")
    print("\n".join(summarize(declared["end_to_end"], pairs)))
    if args.json:
        revisions = {side: {"rev": rev, "commit": commit(rev)} for side, rev in revs.items()}
        store(args.json, summary_record(args.workload, revisions, seconds,
                                        declared["end_to_end"], pairs))
    return 0 if all(p and c for _, p, c in pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
