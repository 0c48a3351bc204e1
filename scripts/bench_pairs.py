#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and summarise
the end-to-end metrics.

    python3 scripts/bench_pairs.py --parent REV [--change REV] \\
        --workload W --seeds A-B

For each seed, both revisions are exported fresh with ``git archive``
into a temporary directory and ``bench/run.py --trace 0`` runs in each
export, the parent first on even-numbered pairs and the change first on
odd ones, each for ``run_seconds`` from ``BENCHMARK.json``.  The script
refuses to run when ``bench/`` or ``BENCHMARK.json`` differ between the
two revisions, since the benchmark itself would then differ.  It prints,
for each end-to-end metric, the per-pair values, both medians, both
quartile ranges and the number of pairs the change wins.  Standard
library only; nothing is written in the checkout.
"""

import argparse
import hashlib
import io
import json
import os
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


def summarize(metrics, pairs):
    """Report lines for ``pairs``, a list of (seed, parent result, change
    result) with results as ``bench/run.py`` prints them, over the
    end-to-end ``metrics`` of ``BENCHMARK.json``."""
    done = [(s, p, c) for s, p, c in pairs if p and c]
    lines = [f"seeds {' '.join(str(s) for s, _, _ in pairs)}; "
             f"{len(done)} complete pairs"]
    for side, index in (("parent", 1), ("change", 2)):
        runs = [pair[index] for pair in pairs if pair[index]]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines.append(f"{side}: {len(pairs) - len(runs)} runs failed, "
                     f"{failed} of {attempted} operations failed")
    if not done:
        return lines
    lines.append(f"{'metric':<16} {'parent':>10} {'change':>10} {'delta':>8} "
                 f"{'parent IQR':>10} {'change IQR':>10} {'wins':>6}")
    details = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        old = [p["metrics"][name]["value"] for _, p, _ in done]
        new = [c["metrics"][name]["value"] for _, _, c in done]
        wins = sum((n < o) if lower else (n > o) for o, n in zip(old, new))
        m_old, m_new = statistics.median(old), statistics.median(new)
        iqrs = [q3 - q1 for q1, q3 in map(quartiles, (old, new))]
        delta = (m_new - m_old) / m_old if m_old else float("nan")
        lines.append(f"{name:<16} {m_old:>10.4g} {m_new:>10.4g} {delta:>+8.1%} "
                     f"{iqrs[0]:>10.4g} {iqrs[1]:>10.4g} {wins:>3}/{len(done)}")
        details.append(f"{name} ({metric['unit']}, {metric['better']} is better): "
                       + "/".join(f"{v:.4g}" for v in old) + " -> "
                       + "/".join(f"{v:.4g}" for v in new))
    return lines + details


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="alternating benchmark pairs of two revisions")
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--change", default="HEAD", help="the revision measured (HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
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
    return 0 if all(p and c for _, p, c in pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
