#!/usr/bin/env python3
"""Replay the benchmark's cases in process and print one sha256 over what
every call printed, so that two revisions can be checked for
byte-identical output.

    python3 scripts/replay_cases.py [--workloads W,...] [--seeds A-B] [--cases N]

For each workload and seed, ``bench/workloads.write_cases`` writes the
first N cases (by default 60 scan, 120 analyze, 60 semigroup and 400
allfan cases) into a temporary directory, and each of their CLI calls
runs through ``toricfg.cli.main`` from this checkout's ``src``.  The
digest covers the workload, seed, case id, call index, exit code, stdout
and stderr of every call.  The calls name their inputs by paths relative
to the temporary directory, which is the working directory while they
run, so the digest does not depend on where the cases were written.  To
replay another revision, run a copy of this script from its checkout.
"""

import argparse
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "bench", "scripts")]

from bench_pairs import parse_seeds  # noqa: E402
from toricfg import cli  # noqa: E402
from workloads import WORKLOADS, write_cases  # noqa: E402

DEFAULT_CASES = {"scan": 60, "analyze": 120, "semigroup": 60, "allfan": 400}


def parse_workloads(text):
    names = text.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown workloads {unknown}")
    return names


def run_call(argv):
    """(exit code or the exception it ended with, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = f"exit {exc.code}"
        except Exception as exc:  # a crash is part of the output compared
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def replay(workloads, seeds, n_cases=None):
    """(sha256 hex digest, number of calls) over the cases' calls, run in
    the current working directory."""
    digest, calls = hashlib.sha256(), 0
    for workload in workloads:
        for seed in seeds:
            directory = Path(f"{workload}-{seed}")
            stop = n_cases or DEFAULT_CASES[workload]
            for case in write_cases(workload, seed, directory, 0, stop):
                for k, argv in enumerate(case["calls"]):
                    rc, out, err = run_call(argv)
                    digest.update(f"{workload}:{seed}:{case['id']}:{k}:{rc}\n".encode())
                    digest.update(f"{len(out)}:{out}{len(err)}:{err}".encode())
                    calls += 1
    return digest.hexdigest(), calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="replay the benchmark cases in process and hash their output")
    ap.add_argument("--workloads", type=parse_workloads, default=list(WORKLOADS),
                    help="comma-separated workloads (default: all four)")
    ap.add_argument("--seeds", type=parse_seeds, default=[1], help="seed or range A-B")
    ap.add_argument("--cases", type=int, default=None,
                    help="cases per workload and seed (default: 60/120/60/400)")
    args = ap.parse_args(argv)
    if args.cases is not None and args.cases < 1:
        ap.error("--cases must be at least 1")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        os.chdir(tmp)
        try:
            digest, calls = replay(args.workloads, args.seeds, args.cases)
        finally:
            os.chdir(cwd)
    print(f"{digest}  {calls} calls")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
