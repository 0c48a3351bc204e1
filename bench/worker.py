"""One benchmark process: write a workload's inputs, or make one pass.

    python3 bench/worker.py setup --workload W --seed S --dir D
    python3 bench/worker.py pass --workload W --seed S --dir D --seconds T
    python3 bench/worker.py pass --workload W --seed S --dir D --cases K [--trace]

``run.py`` starts each as a fresh process, so module-level caches of the
program start cold in every pass.  The last line of stdout is one JSON
object.

A pass is a closed loop with one caller: it sends the next CLI call only
after the previous one has returned and been checked.  Only the calls are
timed; each case's outputs are checked right after its calls, with the
clock stopped and tracing paused, and then dropped, so memory does not
grow with the number of calls.  ``--seconds`` stops the loop once the
timed calls add up to that long; ``--cases`` runs a fixed prefix instead.
Between calls the reference kernel of ``speed.py`` is timed, and every
time is reported both raw and at reference speed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import speed
from checks import CHECKS
from workloads import CHUNK, PREFIX_SIZE, WORKLOADS, n_strata, write_cases, write_pool

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# exceptions a malformed output can raise inside a check
MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def import_program():
    sys.path.insert(0, str(SRC))
    import toricfg
    import toricfg.cli

    if Path(toricfg.__file__).resolve().parent != SRC / "toricfg":
        raise SystemExit(f"toricfg imported from {toricfg.__file__}, not from {SRC}")
    return toricfg.cli


def run_call(cli, argv):
    """(exit code or error text, stdout, duration ns) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = f"exited {exc.code}"
        except Exception:  # a crash is a failed call, not a failed benchmark
            rc = traceback.format_exc(limit=3)
        end = time.perf_counter_ns()
    return rc, out.getvalue(), end - start


def cache_counters():
    """hits/misses of every functools cache at module level in the package."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("toricfg"):
            continue
        for attr, val in vars(mod).items():
            info = getattr(val, "cache_info", None)
            if callable(info) and f"{name}.{attr}" not in out:
                ci = info()
                out[f"{name}.{attr}"] = {"hits": ci.hits, "misses": ci.misses,
                                         "currsize": ci.currsize}
    return out


def make_pass(cli, workload, seed, cases, directory, seconds=None, n_cases=None,
              tracer=None):
    check = CHECKS[workload]
    budget = None if seconds is None else seconds * 1e9
    prefix = PREFIX_SIZE[workload]
    pool = len(cases)
    digest = hashlib.sha256()
    raw_ns, kernel, sample_of, labels, positions, failures = [], [], [], [], [], []
    since_sample = float("inf")
    units = []  # workload units of each case, 0 if it failed a check
    attempted = failed = 0
    timed_ns = 0
    i = 0
    while (n_cases is None or i < n_cases) and (budget is None or timed_ns < budget):
        if i == len(cases):
            cases = cases + write_cases(workload, seed, directory, i, i + CHUNK)
        case = cases[i]
        results = []
        for argv in case["calls"]:
            if since_sample >= speed.SAMPLE_EVERY_MS * 1e6:
                kernel.append(speed.kernel_ms())
                since_sample = 0
            rc, out, ns = run_call(cli, argv)
            since_sample += ns
            sample_of.append(len(kernel) - 1)
            timed_ns += ns
            results.append((rc, out))
            raw_ns.append(ns)
            labels.append(case["label"])
            positions.append(i)
        with tracer.paused() if tracer else nullcontext():
            try:
                errors = check(case, results, seed)
            except MALFORMED as exc:
                errors = [[f"malformed output: {exc!r}"]] * len(results)
        attempted += len(results)
        bad = [e for e in errors if e]
        failed += len(bad)
        if bad:
            failures.extend(f"case {case['id']}: {e[0]}" for e in bad)
        units.append(0 if bad else
                     case["units"] or (len(results[0][1].splitlines()) - 2))
        if i < prefix:
            for k, (rc, out) in enumerate(results):
                digest.update(f"{case['id']}:{k}:{rc}\n".encode())
                digest.update(out.encode())
        i += 1
    factor = speed.factors(kernel)
    scaled_ms = [ns / 1e6 * factor[k] for ns, k in zip(raw_ns, sample_of)]
    by_label = {}
    for label, ms in zip(labels, scaled_ms):
        by_label.setdefault(label, []).append(ms)
    round_rates = _round_rates(positions, scaled_ms, units, n_strata(workload))
    return {
        "cases_done": i,
        "cases_written_in_pass": len(cases) - pool,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "units": sum(units),
        "timed_s": sum(scaled_ms) / 1e3,
        "round_rates": round_rates,
        "latencies_ms": scaled_ms,
        "raw_timed_s": timed_ns / 1e9,
        "raw_latency_p50_ms": statistics.median(raw_ns) / 1e6 if raw_ns else None,
        "speed_factor": speed.REFERENCE_MS / statistics.median(kernel) if kernel else None,
        "kernel_ms_quartiles": statistics.quantiles(kernel, n=4) if len(kernel) > 1 else kernel,
        "slowest_calls": sorted(zip(scaled_ms, positions, labels), reverse=True)[:8],
        "label_median_ms": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "label_calls": {k: len(v) for k, v in sorted(by_label.items())},
        "prefix_sha256": digest.hexdigest() if i >= prefix else None,
        "prefix_cases": prefix,
    }


def _round_rates(positions, ms, units, per_round):
    """Units per second of each complete round of the loop, a round being
    one case of every stratum in turn."""
    time_ms = [0.0] * ((len(units) + per_round - 1) // per_round)
    for pos, t in zip(positions, ms):
        time_ms[pos // per_round] += t
    return [
        sum(units[r * per_round:(r + 1) * per_round]) / time_ms[r] * 1e3
        for r in range(len(units) // per_round)
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "pass"))
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--cases", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here (gzipped TSV)")
    args = ap.parse_args(argv)

    if args.mode == "setup":
        start = time.perf_counter()
        import_program()
        write_pool(args.workload, args.seed, Path(args.dir))
        raw = time.perf_counter() - start
        # set-up is mostly unmarshalling and running module code, which
        # slows down in the same machine speed states as the kernel
        kernel = statistics.median(speed.kernel_ms() for _ in range(5))
        print(json.dumps({"setup_s": raw * speed.REFERENCE_MS / kernel, "raw_setup_s": raw}))
        return 0

    if (args.seconds is None) == (args.cases is None):
        ap.error("give exactly one of --seconds and --cases")
    cli = import_program()
    manifest = json.loads((Path(args.dir) / "manifest.json").read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        out = make_pass(cli, args.workload, args.seed, manifest["cases"], Path(args.dir),
                        seconds=args.seconds, n_cases=args.cases, tracer=tracer)
    finally:
        if tracer:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["caches"] = cache_counters()
    if tracer:
        # self times at reference speed, by the pass's median kernel time
        out["layers"] = {
            k: (v * out["speed_factor"] if unit == "ms" else v, unit)
            for k, (v, unit) in tracer.metrics().items()
        }
        out["untraced_functions"] = tracer.missing
        out["spans"] = len(tracer.spans) // 5
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
