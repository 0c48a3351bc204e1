#!/usr/bin/env python3
"""Scan every primitive direction up to a bound over the symmetric
16-gon of inputs/sym16gon.json and report the finite-generation verdicts.

The bundled polygon is tuned so that every direction fails; this script
re-verifies that claim and prints a short witness per direction.
"""

import argparse
import os
import time

from toricfg.cli import load_problem
from toricfg.criterion import fg_for_all_divisors, scan_directions
from toricfg.fans import normal_fan

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "inputs")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bound", type=int, default=20)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    path = os.path.join(INPUTS, "sym16gon.json")
    problem = load_problem(argparse.Namespace(command="scan", input=path, direction=None))
    polygon = problem.p_d
    fan = normal_fan(polygon)
    print(f"polygon vertices: {[(int(x), int(y)) for x, y in polygon.vertices]}")
    print(f"normal fan: {len(fan.rays)} rays, smooth={fan.is_smooth}")

    t0 = time.time()
    results = scan_directions(problem.divisor, args.bound)
    finitely_generated = [v for v, verdict in results if verdict.finitely_generated]
    print(
        f"scanned {len(results)} directions up to bound {args.bound} "
        f"in {time.time() - t0:.1f}s"
    )
    if args.verbose:
        for v, verdict in results:
            wit = verdict.witness_plus or verdict.witness_minus
            print(f"  v={v}: fg={verdict.finitely_generated} witness={wit}")
    if finitely_generated:
        print(f"UNEXPECTED finitely generated directions: {finitely_generated}")
        raise SystemExit(1)
    print("every scanned direction fails finite generation")

    bad = [v for v, _ in results if fg_for_all_divisors(fan, v).holds]
    if bad:
        print(f"UNEXPECTED all-divisor survivors: {bad}")
        raise SystemExit(1)
    print("the all-divisors criterion fails for every scanned direction too")


if __name__ == "__main__":
    main()
