"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from toricfg import (  # noqa: E402
    Fan2,
    RatPolygon,
    ToricDivisor,
    divisor_from_polytope,
    is_ample,
)
from toricfg import cli, geometry, oracles, semigroup  # noqa: E402

SLANTED = {"fan": {"rays": [[-1, 0], [0, -1], [1, 2], [0, 1]]},
           "divisor": {"coefficients": [0, 0, 8, 3]}, "direction": [-2, 3]}


def call(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def write(tmp_path, doc, name="p.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- inputs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    a = workloads.write_cases(workload, 7, tmp_path / "a", 0, 12)
    b = workloads.write_cases(workload, 7, tmp_path / "b", 0, 12)
    for ca, cb in zip(a, b):
        assert Path(ca["input"]).read_bytes() == Path(cb["input"]).read_bytes()
    assert workloads.generate(workload, 7, 0, 12) == workloads.generate(workload, 7, 0, 12)
    assert workloads.generate(workload, 7, 0, 12) != workloads.generate(workload, 8, 0, 12)
    # a pass that extends the pool gets the same cases as a longer set-up
    assert workloads.generate(workload, 7, 5, 12) == workloads.generate(workload, 7, 0, 12)[5:]


def _divisor(doc):
    if "polytope" in doc:
        return divisor_from_polytope(RatPolygon.from_vertices(
            [tuple(checks._frac(c) for c in p) for p in doc["polytope"]["vertices"]]))
    rays = [tuple(r) for r in doc["fan"]["rays"]]
    fan = Fan2.from_rays(rays)
    coeffs = [checks._frac(c) for c in doc["divisor"]["coefficients"]]
    return ToricDivisor.make(fan, dict(zip(rays, coeffs)))


@pytest.mark.parametrize("workload", ["scan", "analyze", "semigroup"])
def test_divisors_are_ample_on_smooth_fans(workload):
    for doc, _, _ in workloads.generate(workload, 3, 0, 60):
        d = _divisor(doc)
        assert is_ample(d)
        if "fan" in doc:
            assert d.fan.is_smooth


def test_allfan_fans_complete_and_varied():
    cases = workloads.generate("allfan", 3, 0, 80)
    coords = set()
    for doc, _, _ in cases:
        rays = doc["fan"]["rays"]
        assert len(Fan2.from_rays(rays).rays) == len(rays)
        coords.add(max(abs(x) for r in rays for x in r))
    assert max(coords) > 16 and min(coords) <= 4
    assert any(not Fan2.from_rays(d["fan"]["rays"]).is_smooth for d, _, _ in cases)


def test_scan_inputs_vary_rays_width_and_bits():
    cases = workloads.generate("scan", 3, 0, 60)
    ray_counts = {len(d["fan"]["rays"]) for d, _, _ in cases if "fan" in d}
    assert ray_counts == set(range(3, 17))
    bits = {max(checks._frac(c).numerator.bit_length()
                for c in d["divisor"]["coefficients"])
            for d, _, _ in cases if "fan" in d}
    assert min(bits) < 8 and max(bits) > 40
    assert any(isinstance(c, list) for d, _, _ in cases if "fan" in d
               for c in d["divisor"]["coefficients"])


def test_scan_directions_match_cli_enumeration(tmp_path):
    path = write(tmp_path, SLANTED)
    rc, out = call(["scan", "--input", path, "--bound", "4"])
    assert rc == 0
    assert [tuple(r["direction"]) for r in json.loads(out)] == workloads.scan_directions(4)


# -- checks catch tampered outputs -----------------------------------------


def _first_case(workload, tmp_path, pick=lambda case: True):
    return next(c for c in workloads.write_cases(workload, 2, tmp_path, 0, 20) if pick(c))


def test_scan_check_catches_flipped_verdict_and_bad_witness(tmp_path):
    case = _first_case("scan", tmp_path, lambda c: c["label"] == "sym16gon")
    rc, out = call(case["calls"][0])
    assert checks.check_scan(case, [(rc, out)], 2) == [[]]
    rows = json.loads(out)
    flipped = [dict(r) for r in rows]
    flipped[0]["finitely_generated"] = True
    flipped[0]["witness_plus"] = flipped[0]["witness_minus"] = None
    assert checks.check_scan(case, [(0, json.dumps(flipped))], 2)[0]
    wrong = [dict(r) for r in rows]
    k = next(i for i, r in enumerate(wrong) if r["witness_plus"])
    (a, b), q = wrong[k]["witness_plus"]
    wrong[k]["witness_plus"] = [[a + 1, b], q]
    assert checks.check_scan(case, [(0, json.dumps(wrong))], 2)[0]


def test_scan_check_compares_with_lifting_table(tmp_path):
    case = _first_case("scan", tmp_path, lambda c: c["check_dirs"] and c["label"] != "sym16gon")
    rc, out = call(case["calls"][0])
    assert checks.check_scan(case, [(rc, out)], 2) == [[]]
    rows = json.loads(out)
    v = case["check_dirs"][0]
    for r in rows:
        if r["direction"] == v:
            # flip without leaving a structural trace: only the lifting table can tell
            r["finitely_generated"] = not r["finitely_generated"]
            r["witness_plus"] = r["witness_minus"] = None
            r["degenerate_side"] = True
    errors = checks.check_scan(case, [(0, json.dumps(rows))], 2)[0]
    assert any("lifting table" in e for e in errors)


def test_analyze_check_catches_flipped_verdict(tmp_path):
    case = _first_case("analyze", tmp_path)
    rc, out = call(case["calls"][0])
    assert checks.check_analyze(case, [(rc, out)], 2) == [[]]
    doc = json.loads(out)
    doc["finitely_generated"] = not doc["finitely_generated"]
    assert checks.check_analyze(case, [(0, json.dumps(doc))], 2)[0]


def test_semigroup_check_catches_wrong_counts(tmp_path):
    case = _first_case("semigroup", tmp_path)
    rc, out = call(case["calls"][0])
    assert checks.check_semigroup(case, [(rc, out)], 2) == [[]]
    lines = out.splitlines()
    bumped = lines[:2] + [f"{r.rsplit(',', 1)[0]},{int(r.rsplit(',', 1)[1]) + 1}"
                          for r in lines[2:]]
    assert checks.check_semigroup(case, [(0, "\n".join(bumped) + "\n")], 2)[0]


def test_allfan_check_catches_wrong_witness(tmp_path):
    for case in workloads.write_cases("allfan", 2, tmp_path, 0, 20):
        results = [call(argv) for argv in case["calls"]]
        assert checks.check_allfan(case, results, 2) == [[], []]
        fg = json.loads(results[0][1])
        if not fg["holds"]:
            break
    (a, b), q = fg["witness"]
    fd, g = fg["failing_direction"], fg["failing_cone"]["generators"][0]
    off_sum = dict(fg, witness=[[a + 1, b], q])
    # parts that still sum to the direction, one of them outside the cone
    outside = [g[1], -g[0]]
    off_cone = dict(fg, witness=[[fd[0] - outside[0], fd[1] - outside[1]], outside])
    for tampered in (off_sum, off_cone):
        errors = checks.check_allfan(case, [(0, json.dumps(tampered)), results[1]], 2)
        assert errors[0] and not errors[1]


class TamperingCli:
    """Runs the real CLI and flips the finite-generation verdict."""

    @staticmethod
    def main(argv):
        rc, out = call(argv)
        key = '"finitely_generated": '
        flipped = (out.replace(key + "true", key + "T").replace(key + "false", key + "true")
                   .replace(key + "T", key + "false"))
        sys.stdout.write(flipped)
        return rc


def test_tampered_outputs_counted_as_failures(tmp_path):
    cases = workloads.write_cases("analyze", 4, tmp_path, 0, 6)
    ok = worker.make_pass(cli, "analyze", 4, cases, tmp_path, n_cases=6)
    assert (ok["attempted"], ok["failed"]) == (6, 0)
    bad = worker.make_pass(TamperingCli, "analyze", 4, cases, tmp_path, n_cases=6)
    assert (bad["attempted"], bad["failed"]) == (6, 6)
    assert bad["units"] == 0


def test_crashing_call_is_a_failure_not_a_crash(tmp_path):
    cases = workloads.write_cases("scan", 4, tmp_path, 0, 2)

    class Raising:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    res = worker.make_pass(Raising, "scan", 4, cases, tmp_path, n_cases=2)
    assert (res["attempted"], res["failed"]) == (2, 2)
    assert "RuntimeError: boom" in res["failures"][0] or res["failures"]


def test_pass_extends_the_pool_instead_of_repeating(tmp_path):
    cases = workloads.write_cases("allfan", 4, tmp_path, 0, 5)
    res = worker.make_pass(cli, "allfan", 4, cases, tmp_path, n_cases=12)
    assert res["cases_written_in_pass"] == workloads.CHUNK
    assert (tmp_path / "case00011.json").is_file()
    assert res["failed"] == 0


# -- tracing --------------------------------------------------------------


def _traced(argvs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in argvs:
            rc, _ = call(argv)
            assert rc == 0
    finally:
        tracer.uninstall()
    return tracer


def test_wrappers_cover_every_binding_site_and_are_removed():
    originals = (geometry.lattice_points, semigroup.lattice_points,
                 oracles.lattice_points, RatPolygon.__dict__["from_halfplanes"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert semigroup.lattice_points is geometry.lattice_points
        assert oracles.lattice_points is geometry.lattice_points
        assert geometry.lattice_points is not originals[0]
        assert RatPolygon.__dict__["from_halfplanes"] is not originals[3]
    finally:
        tracer.uninstall()
    assert (geometry.lattice_points, semigroup.lattice_points,
            oracles.lattice_points, RatPolygon.__dict__["from_halfplanes"]) == originals


def test_pinned_counts_scan(tmp_path):
    path = write(tmp_path, SLANTED)
    m = _traced([["scan", "--input", path, "--bound", "4"]]).metrics()
    dirs = len(workloads.scan_directions(4))
    assert dirs == 24
    assert m["fans.divisor_polytope.calls"][0] == dirs + 2
    assert m["criterion.is_finitely_generated.calls"][0] == dirs
    assert m["criterion.max_segment.calls"][0] == dirs
    assert m["fans.flag_data.calls"][0] == dirs
    assert m["cli.main.calls"][0] == 1
    pinned = {k: m[k][0] for k in (
        "geometry.from_halfplanes.calls",
        "geometry.from_halfplanes.halfplanes_in",
        "cones.is_strongly_decomposable.calls",
        "criterion.fallback_ratio",
    )}
    assert pinned == PINNED_SCAN


def test_pinned_counts_semigroup_and_analyze(tmp_path):
    path = write(tmp_path, SLANTED)
    m = _traced([["semigroup", "--input", path, "--lmax", "3"],
                 ["analyze", "--input", path, "--lambda-max", "10"]]).metrics()
    pinned = {k: m[k][0] for k in (
        "semigroup.e_bar.calls",
        "semigroup.theta.calls",
        "geometry.lattice_points.calls",
        "geometry.lattice_points.points_out",
        "oracles.lift_search.calls",
        "oracles.lift_search.dilations",
        "criterion.vertex_lifts.calls",
    )}
    assert pinned == PINNED_SEMIGROUP_ANALYZE


def test_self_time_is_span_time_minus_children(tmp_path):
    path = write(tmp_path, SLANTED)
    tracer = _traced([["fg", "--input", path]])
    s = tracer.spans
    records = [tuple(s[i:i + 5]) for i in range(0, len(s), 5)]
    root = next(r for r in records if r[2] == -1)
    assert tracer.names[root[1]] == "cli.main"
    total = sum(ns for ns in tracer.self_ns)
    assert total == root[4] - root[3]


def test_runs_fail_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# counts of the seed program on slanted_quad; deterministic on every machine
PINNED_SCAN = {
    "cones.is_strongly_decomposable.calls": 46,
    "criterion.fallback_ratio": 1 / 24,
    "geometry.from_halfplanes.calls": 71,
    "geometry.from_halfplanes.halfplanes_in": 284,
}
PINNED_SEMIGROUP_ANALYZE = {
    "semigroup.e_bar.calls": 9,
    "semigroup.theta.calls": 21,
    "geometry.lattice_points.calls": 25,
    "geometry.lattice_points.points_out": 7106,
    "oracles.lift_search.calls": 3,
    "oracles.lift_search.dilations": 21,
    "criterion.vertex_lifts.calls": 3,
}
