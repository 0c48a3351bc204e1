"""Benchmark entry point.

    python3 bench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Writes a results file under
``bench/results/`` and prints, as the last line of stdout, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``bench/README.md`` for what each metric means.

This process never imports the program.  Every set-up and every pass runs
in a fresh ``worker.py`` process, so caches start cold in each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PREFIX_SIZE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

# set-ups per end-to-end run; setup_s is their median
SETUP_REPEATS = 9
# the tail latency is read at this percentile; at the run length the
# benchmark declares, every workload makes well over 100 calls, so at least
# ten calls lie beyond it
TAIL_PERCENTILE = 90
# a run must end within 180 s; children share what is left of this
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def child(mode, workload, seed, directory, deadline, *extra):
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seed", str(seed), "--dir", str(directory), *extra]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before " + mode)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Value at TAIL_PERCENTILE and how many calls lie beyond it."""
    if len(latencies) < 2:
        return latencies[0], 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(1 for x in latencies if x > value)


def end_to_end(args, work, deadline):
    # every set-up writes the same files into the same directory
    setups = [
        child("setup", args.workload, args.seed, work, deadline)["setup_s"]
        for _ in range(SETUP_REPEATS)
    ]
    res = child("pass", args.workload, args.seed, work, deadline,
                "--seconds", str(args.seconds))
    lat = res.pop("latencies_ms")
    tail_ms, beyond = tail(lat)
    overall = res["units"] / res["timed_s"]
    rates = res["round_rates"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput": (statistics.median(rates) if rates else overall, "units/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    detail = {
        "setup_samples_s": setups,
        "calls": len(lat),
        "rounds": len(rates),
        "throughput_overall": overall,
        "tail_percentile": TAIL_PERCENTILE,
        "calls_beyond_tail": beyond,
        "pass": res,
    }
    return metrics, res["attempted"], res["failed"], detail


def per_layer(args, work, deadline):
    child("setup", args.workload, args.seed, work, deadline)
    cases = str(PREFIX_SIZE[args.workload])
    plain = child("pass", args.workload, args.seed, work, deadline,
                  "--cases", cases)
    spans = BENCH / "results" / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    traced = child("pass", args.workload, args.seed, work, deadline,
                   "--cases", cases, "--trace", "--spans", str(spans))
    metrics = {k: tuple(v) for k, v in traced.pop("layers").items()}
    metrics["trace.overhead_ratio"] = (traced["timed_s"] / plain["timed_s"] - 1, "ratio")
    for res in (plain, traced):
        res.pop("latencies_ms")
    detail = {"untraced_pass": plain, "traced_pass": traced, "spans_file": str(spans)}
    return (metrics, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], detail)


def main(argv=None):
    ap = argparse.ArgumentParser(description="toricfg CLI benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "toricfg" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'toricfg'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    (BENCH / "results").mkdir(exist_ok=True)
    work = BENCH / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, detail = measure(args, work, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "fail_ratio": failed / attempted if attempted else None,
        **result,
        "detail": detail,
    }
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
