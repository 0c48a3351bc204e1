import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricfg import cli, criterion, fans, semigroup
from toricfg.geometry import RatPolygon
from toricfg.semigroup import make_context
from test_cli_golden import DOCS
from util import (
    TEXT_COMMANDS,
    input_documents,
    load_example,
    random_cli_call,
    run_main,
    src_env,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = os.path.join(ROOT, "inputs")


def inp(name):
    return os.path.join(INPUTS, name)


def test_analyze_running_example():
    res = run_main("analyze", "--input", inp("slanted_quad.json"))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["finitely_generated"] is False
    assert doc["q_hat"] == [8, 7]
    assert doc["m"] == [-3, -2]
    assert [[1, 2], 7] in doc["cprime"] and [[0, 1], 2] in doc["cprime"]
    assert sorted(map(tuple, doc["nabla_prime"])) == sorted(
        [(0, 0), (-7, 0), (-3, -2), (0, -2)]
    )
    nb = [tuple(map(tuple_or_int, p)) for p in doc["nobody"]["vertices"]]
    assert set(nb) == {(0, 0), (0, 25), ((2, 3), (35, 3)), ((8, 7), 0)}
    assert doc["witness_plus"] == [[-2, 1], [0, 2]]
    lifts = {tuple_or_int(row["q"]): row for row in doc["lifting"]}
    assert lifts[(2, 3)]["lifts"] is False and lifts[(2, 3)]["lambda"] is None
    assert lifts[(8, 7)]["lifts"] is True


def tuple_or_int(x):
    return tuple(x) if isinstance(x, list) else x


def test_analyze_sevengon_polytope_mode():
    res = run_main("analyze", "--input", inp("sevengon.json"))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["finitely_generated"] is True
    assert doc["fan"]["smooth"] is False  # inferred fan may be singular
    assert all(row["lifts"] for row in doc["lifting"])


def test_analyze_rejects_nonsmooth_fan_mode():
    res = run_main("analyze", "--input", inp("extended_quad_fan.json"))
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "fan not smooth"


def test_validation_errors():
    import tempfile

    def reject(doc, reason_part):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(doc, fh)
            path = fh.name
        try:
            res = run_main("analyze", "--input", path)
            assert res.returncode == 2, res.stdout
            assert reason_part in json.loads(res.stderr)["error"]
        finally:
            os.unlink(path)

    reject({"fan": {"rays": [[1, 0], [0, 1]]}, "direction": [1, 0]}, "invalid fan")
    reject(
        {
            "fan": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
            "divisor": {"coefficients": [0, 0, 1, 1]},
        },
        "no direction",
    )
    reject(
        {
            "fan": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
            "divisor": {"coefficients": [0, 0, 1, 1]},
            "direction": [2, 4],
        },
        "not primitive",
    )
    reject(
        {
            "fan": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
            "divisor": {"coefficients": [0, 0, 0, 1]},
            "direction": [1, 2],
        },
        "not ample",
    )
    reject({"direction": [1, 0]}, "needs either a fan or a polytope")
    # wrong JSON shapes and boolean numbers are reasons too, not crashes
    tri = {"vertices": [[0, 0], [2, 0], [0, 2]]}
    reject(
        {"fan": [[1, 0], [0, 1], [-1, -1]], "direction": [1, 2]},
        "fan.rays must be a list",
    )
    reject({"fan": None, "direction": [1, 2]}, "fan.rays must be a list")
    reject(
        {"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "divisor": [1, 1, 1],
         "direction": [1, 2]},
        "divisor.coefficients must align",
    )
    reject(
        {"polytope": [[0, 0], [2, 0], [0, 2]], "direction": [1, 2]},
        "polytope.vertices must list",
    )
    reject({"polytope": tri, "direction": [1, 2], "lk": 5}, "lk must be a list")
    reject({"polytope": tri, "direction": [1, 2], "bound": True},
           "bound must be a positive integer")
    reject({"polytope": tri, "direction": [1, 2], "lambda_max": True},
           "lambda_max must be a positive integer")


def test_semigroup_csv():
    res = run_main("semigroup", "--input", inp("slanted_quad.json"), "--lmax", "3")
    assert res.returncode == 0
    lines = [l for l in res.stdout.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "l,k,e_bar"
    rows = {tuple(map(int, l.split(","))) for l in lines[1:]}
    assert (1, 1, 2) in rows
    assert (3, 2, 30) in rows
    assert all(any(r[0] == l and r[1] == 0 for r in rows) for l in (1, 2, 3))


def test_semigroup_expand():
    res = run_main(
        "semigroup", "--input", inp("slanted_quad.json"), "--lmax", "1", "--expand"
    )
    lines = [l for l in res.stdout.splitlines() if l and not l.startswith("#")]
    rows = {tuple(map(int, l.split(","))) for l in lines[1:]}
    assert (1, 1, 0) in rows and (1, 1, 1) in rows and (1, 1, 2) not in rows


def _refused_in_time(*argv):
    """``toricfg`` with argv exits 2 with the row cap as its reason, in
    under 1 s; a child process, so that a run the cap misses is killed
    after 5 s in place of hanging the suite."""
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "toricfg.cli", *argv], env=src_env(),
                         capture_output=True, text=True, timeout=5)
    assert time.perf_counter() - start < 1
    assert res.returncode == 2 and res.stdout == ""
    assert "over the cap of 1000000" in json.loads(res.stderr)["error"]


def test_semigroup_refuses_too_many_cells():
    # q_hat is about 1.7e12, so level 1 alone has that many cells
    _refused_in_time("semigroup", "--input", inp("big_rational_zonotope.json"), "--lmax", "1")


def test_semigroup_refuses_too_many_triples(tmp_path):
    # two cells whose e_bar sum to 2e15 + 2 triples; the counts alone print
    path = tmp_path / "long_rectangle.json"
    w = 10**15
    path.write_text(json.dumps(
        {"polytope": {"vertices": [[0, 0], [w, 0], [w, 1], [0, 1]]}, "direction": [1, 0]}))
    res = run_main("semigroup", "--input", str(path), "--lmax", "1")
    assert res.returncode == 0 and res.stdout.endswith(f"1,0,{w + 1}\n1,1,{w + 1}\n")
    _refused_in_time("semigroup", "--input", str(path), "--lmax", "1", "--expand")


@pytest.mark.parametrize("name", ["slanted_quad.json", "sevengon.json", "rational_quad.json"])
@pytest.mark.parametrize("expand", [False, True])
def test_semigroup_row_count_is_exact(monkeypatch, name, expand):
    # with the cap at the number of rows a run writes it still writes
    # them, and one below it refuses
    argv = ["semigroup", "--input", inp(name), "--lmax", "4"] + ["--expand"] * expand
    res = run_main(*argv)
    rows = sum(1 for line in res.stdout.splitlines() if line[:1].isdigit())
    monkeypatch.setattr(cli, "MAX_SEMIGROUP_ROWS", rows)
    assert run_main(*argv) == res
    monkeypatch.setattr(cli, "MAX_SEMIGROUP_ROWS", rows - 1)
    assert run_main(*argv).returncode == 2


def test_nobody_json():
    res = run_main("nobody", "--input", inp("slanted_quad.json"))
    doc = json.loads(res.stdout)
    assert doc["q_hat"] == [8, 7]
    assert [0, 25] in doc["vertices"]
    assert [[2, 3], [35, 3]] in doc["vertices"]


def test_fg_and_fg_all():
    res = run_main("fg", "--input", inp("sevengon.json"))
    assert json.loads(res.stdout)["finitely_generated"] is True
    res2 = run_main("fg-all", "--input", inp("extended_quad_fan.json"))
    doc = json.loads(res2.stdout)
    assert doc["holds"] is False and doc["failing_cone"] is not None


def _strictly_inside(cone, p):
    (a, b), (c, d) = cone["generators"]
    return cone["kind"] == "cone" and a * p[1] - b * p[0] > 0 and p[0] * d - p[1] * c > 0


def test_long_directions_find_their_witness(tmp_path):
    # c and w - c share about 10**8 lattice points at these directions; the
    # witness search reads them column by column and stops at the first
    # witness instead of listing them all
    fan = tmp_path / "five_rays.json"
    fan.write_text(json.dumps({"fan": {"rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]]}}))
    triangle = tmp_path / "triangle.json"
    triangle.write_text(json.dumps({"polytope": {"vertices": [[0, 0], [2, 0], [0, 2]]}}))
    res = run_main("fg-all", "--input", str(fan), "--direction", "2001,1000")
    assert json.loads(res.stdout)["witness"] == [[2, 1], [1999, 999]]
    res = run_main("fg-all", "--input", str(fan), "--direction", "20001,10000")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    cases = [(doc["failing_cone"], doc["failing_direction"], doc["witness"])]
    assert doc["holds"] is False and doc["failing_direction"] == [20001, 10000]
    res = run_main("fg", "--input", str(triangle), "--direction", "10001,1")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["finitely_generated"] is False and doc["witness_plus"] is None
    cases.append((doc["sigma_minus"], [-10001, -1], doc["witness_minus"]))
    # about 10**6 columns: only the first few are walked, so neither the
    # time nor the memory grows with the direction's length
    tracemalloc.start()
    try:
        res = run_main("fg-all", "--input", str(fan), "--direction", "2000001,1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads(res.stdout)
    assert peak < 2**20 and doc["witness"] == [[2, 1], [1999999, 999999]]
    cases.append((doc["failing_cone"], doc["failing_direction"], doc["witness"]))
    for cone, w, (p, q) in cases:
        assert [p[0] + q[0], p[1] + q[1]] == w
        assert _strictly_inside(cone, p) and _strictly_inside(cone, q)


def test_big_lifting_and_e_bar_are_lattice_invariant(tmp_path):
    # g = [[2, 1], [1, 1]] on the rays and the direction moves P_D by the
    # inverse transpose of g, and a_rho + <u, rho> moves it by -u; neither
    # changes the lambda column of analyze or a section count
    with open(inp("big_rational_zonotope.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    rays = doc["fan"]["rays"]
    coeffs = [Fraction(*a) if isinstance(a, list) else Fraction(a)
              for a in doc["divisor"]["coefficients"]]

    def g(r):
        return [2 * r[0] + r[1], r[0] + r[1]]

    moved = {"fan": {"rays": [g(r) for r in rays]}, "divisor": doc["divisor"],
             "direction": g(doc["direction"])}
    shifted = dict(doc, divisor={"coefficients": [
        [(a + 5 * r[0] - 3 * r[1]).numerator, (a + 5 * r[0] - 3 * r[1]).denominator]
        for r, a in zip(rays, coeffs)]})
    cells = [(1, 0), (2, 7 * 10**11), (15, 25288767439192), (15, 25288767439193)]
    seen = []
    for name, d in (("big", doc), ("moved", moved), ("shifted", shifted)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        res = run_main("analyze", "--input", str(path))
        assert res.returncode == 0, res.stderr
        ctx = cli.load_problem(argparse.Namespace(command="fg", input=str(path), direction=None)).context
        seen.append((json.loads(res.stdout)["lifting"], [semigroup.e_bar(ctx, l, k) for l, k in cells]))
    assert seen[0] == seen[1] == seen[2]
    assert [row["lambda"] for row in seen[0][0]] == [3, 3, None, None, 15]
    assert seen[0][1][:2] == [13560643409421, 25021286818843]


def test_scan_and_construct_bad():
    res = run_main("scan", "--input", inp("unit_square.json"), "--bound", "2")
    rows = json.loads(res.stdout)
    table = {tuple(r["direction"]): r["finitely_generated"] for r in rows}
    assert table[(1, 0)] is True and table[(1, 2)] is False
    res2 = run_main("construct-bad", "--input", inp("extended_quad_fan.json"))
    doc = json.loads(res2.stdout)
    assert doc["constructed"] is True and doc["finitely_generated"] is False


def test_plot_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        res = run_main(
            "plot", "--input", inp("slanted_quad.json"), "--what", "nobody",
            "--output", str(out),
        )
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()
    svg = out1.read_text()
    assert svg.startswith("<svg") and "2/3" in svg and "8/7" in svg and "25" in svg
    res = run_main(
        "plot", "--input", inp("slanted_quad.json"), "--what", "theta(3,2)",
        "--output", str(tmp_path / "t.svg"),
    )
    assert res.returncode == 0
    t = (tmp_path / "t.svg").read_text()
    assert "(-10,0)" in t and "(0,-5)" in t
    # bare "theta" takes the first (l,k) pair from the input document
    res = run_main(
        "plot", "--input", inp("slanted_quad.json"), "--what", "theta",
        "--output", str(tmp_path / "t11.svg"),
    )
    assert res.returncode == 0
    assert "(0,-1/2)" in (tmp_path / "t11.svg").read_text()
    res = run_main(
        "plot", "--input", inp("sevengon.json"), "--what", "fan",
        "--output", str(tmp_path / "f.svg"),
    )
    assert res.returncode == 0
    res = run_main(
        "plot", "--input", inp("slanted_quad.json"), "--what", "nobody",
        "--flip-axes", "--output", str(tmp_path / "flip.svg"),
    )
    assert res.returncode == 0
    assert (tmp_path / "flip.svg").read_text() != svg


def test_theta_plot_rejects_invalid_levels():
    for what in ("theta(0,0)", "theta(-1,2)", "theta(1,-5)"):
        res = run_main("plot", "--input", inp("slanted_quad.json"), "--what", what)
        assert res.returncode == 2 and res.stdout == ""
        assert json.loads(res.stderr)["error"].endswith("needs l, k >= 0, not both zero")
    res = run_main("plot", "--input", inp("slanted_quad.json"), "--what", "theta(0,1)")
    assert (res.returncode, res.stdout) == (2, "")
    assert json.loads(res.stderr) == {"error": "theta(0,1) is empty; nothing to draw"}


def test_plot_rejects_coordinates_too_large_to_draw(tmp_path):
    # the engine reads these polygons exactly, but a figure places its
    # points at float pixel positions
    def polygon(corner):
        path = tmp_path / f"{len(str(corner))}.json"
        path.write_text(json.dumps({"polytope": {"vertices": [[0, 0], [corner, 0], [0, 1]]},
                                    "direction": [1, 2]}))
        return str(path)

    huge, large = polygon(10**400), polygon(10**30)
    assert run_main("fg", "--input", huge).returncode == 0
    assert run_main("nobody", "--input", huge).returncode == 0
    for what in ("polytope", "fan", "nobody"):
        res = run_main("plot", "--input", huge, "--what", what)
        assert res.returncode == 2 and res.stdout == ""
        assert json.loads(res.stderr)["error"] == "the figure's coordinates are too large to draw"
        # a grid of 10**30 columns is counted, not listed, and left out
        res = run_main("plot", "--input", large, "--what", what)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("<svg") and 'fill="#c8c8c8"' not in res.stdout


def test_fan_plot_keeps_arrowheads_on_huge_rays(tmp_path):
    # the normal ray (-1, -10**300) of this triangle ends about 10**302 px
    # from the origin; its length still fits a float, so both wings of its
    # arrowhead leave the tip
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"polytope": {"vertices": [[0, 0], [10**300, 0], [0, 1]]},
                                "direction": [1, 2]}))
    res = run_main("plot", "--input", str(path), "--what", "fan")
    assert res.returncode == 0, res.stderr
    lines = re.findall(r'<line x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)"', res.stdout)
    assert len(lines) == 9  # a shaft and two wings per ray
    wings = [ends for i, ends in enumerate(lines) if i % 3]
    assert all(ends[:2] != ends[2:] for ends in wings)


def test_module_entry_point_matches_in_process_run():
    args = ["fg", "--input", inp("sevengon.json")]
    res = subprocess.run(
        [sys.executable, "-m", "toricfg.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=src_env(),
    )
    assert res.returncode == 0, res.stderr
    assert (res.returncode, res.stdout, res.stderr) == tuple(run_main(*args))


def test_cli_output_flag(tmp_path):
    target = tmp_path / "report.json"
    res = run_main(
        "fg", "--input", inp("slanted_quad.json"), "--output", str(target)
    )
    assert res.returncode == 0 and res.stdout == ""
    assert json.loads(target.read_text())["finitely_generated"] is False


def test_unwritable_output_exits_2_with_a_json_reason(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    rc = cli.main(["fg", "--input", inp("slanted_quad.json"), "--output", str(target)])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"].startswith(f"cannot write output {target}: ")
    assert not target.exists()


def test_direction_flag_overrides_input():
    res = run_main("fg", "--input", inp("sevengon.json"), "--direction", "1,0")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert "finitely_generated" in doc


def test_negative_direction_in_the_equals_form():
    # argparse reads a bare "-2,3" as an option, so a negative first
    # coordinate is written --direction=-2,3
    own = run_main("fg", "--input", inp("slanted_quad.json"))  # direction (-2, 3)
    given = run_main("fg", "--input", inp("slanted_quad.json"), "--direction=-2,3")
    other = run_main("fg", "--input", inp("slanted_quad.json"), "--direction=2,-3")
    assert own.returncode == given.returncode == other.returncode == 0
    assert given.stdout == own.stdout != other.stdout


def test_degenerate_side_flagged_in_output(tmp_path):
    # simplex polytope with the diagonal direction: the longest
    # cross-section is the top edge, so one side cone is undefined and the
    # verdict falls back to the lifting table
    doc = {
        "polytope": {"vertices": [[0, 0], [3, 0], [0, 3]]},
        "direction": [1, 1],
    }
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(doc))
    res = run_main("fg", "--input", str(path))
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["degenerate_side"] is True
    assert out["finitely_generated"] is True
    assert out["lifting"] and all(row["lifts"] for row in out["lifting"])


def test_rational_vertex_polytope_input(tmp_path):
    # the adjusted divisor polytope has rational vertices; polytope mode
    # accepts [num, den] coordinates and reaches the not-fg verdict
    doc = {
        "polytope": {
            "vertices": [
                [0, 0], [-5, 0], [-5, -4], [-1, -6], [[-1, 2], -6], [0, [-11, 2]],
            ]
        },
        "direction": [-2, 3],
    }
    path = tmp_path / "adjusted.json"
    path.write_text(json.dumps(doc))
    res = run_main("fg", "--input", str(path))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["finitely_generated"] is False


def test_scan_uses_bound_from_input(tmp_path):
    doc = {
        "polytope": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        "bound": 1,
    }
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(doc))
    res = run_main("scan", "--input", str(path))
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)
    assert {tuple(r["direction"]) for r in rows} == {(0, 1), (1, -1), (1, 0), (1, 1)}


def test_flags_below_one_are_rejected(capsys):
    from toricfg import cli

    for command, flag, value in (
        ("scan", "--bound", "-1"),
        ("scan", "--bound", "0"),
        ("analyze", "--lambda-max", "0"),
        ("analyze", "--lambda-max", "-2"),
        ("semigroup", "--lmax", "0"),
    ):
        rc = cli.main([command, "--input", inp("slanted_quad.json"), flag, value])
        out, err = capsys.readouterr()
        assert rc == 2, (command, flag, value)
        assert out == ""
        assert json.loads(err) == {"error": f"{flag} must be a positive integer"}


def test_semigroup_computes_the_longest_chord_once(monkeypatch, capsys):
    from toricfg import cli, semigroup

    calls, chord_walk = [], semigroup.ChordWalk

    def counted(*args):
        calls.append(args)
        return chord_walk(*args)

    monkeypatch.setattr(semigroup, "ChordWalk", counted)
    rc = cli.main(["semigroup", "--input", inp("slanted_quad.json"), "--lmax", "5"])
    assert rc == 0
    assert capsys.readouterr().out.count("\n5,") > 0
    assert len(calls) == 1


def test_a_verdict_walks_the_chords_of_p_d_once(monkeypatch, capsys):
    # the maximal segment and the Newton-Okounkov body of the lifting
    # fallback both read the context's one chord walk
    from toricfg import geometry

    calls, init = [], geometry.ChordWalk.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(geometry.ChordWalk, "__init__", counted)
    for command in ("analyze", "fg"):
        calls.clear()
        assert cli.main([command, "--input", inp("slanted_quad.json")]) == 0
        capsys.readouterr()
        assert len(calls) == 1, command


def test_validity_is_read_off_the_polygons_a_call_builds(monkeypatch, tmp_path):
    # the input's ampleness check builds P_D and keeps it, the direction's
    # primitivity needs no polygon, and the one context of the call holds
    # that P_D and a single nabla': fg makes 2 intersections on sym16gon,
    # plot of P_D 1, and construct-bad builds its flag data once, one
    # polygon per interior ray it lowers, and reads the verdict and the
    # printed P_D off the polygons it already has
    lowers = tmp_path / "lowers_two_rays.json"
    lowers.write_text(json.dumps(DOCS["lowers_two_rays.json"]), encoding="utf-8")
    calls = []
    kernel = RatPolygon.from_halfplanes

    def counted(halfplanes):
        calls.append(halfplanes)
        return kernel(halfplanes)

    flags = []

    def counted_flag(fan, v):
        flags.append(v)
        return fans.flag_data(fan, v)

    monkeypatch.setattr(RatPolygon, "from_halfplanes", staticmethod(counted))
    for module in (cli, criterion, semigroup):
        monkeypatch.setattr(module, "flag_data", counted_flag)
    cases = [
        # argv, most intersections, flag_data calls
        (("fg", "sym16gon.json", "--direction", "3,7"), 2, 1),
        (("plot", "slanted_quad.json", "--what", "polytope"), 1, 0),
        (("construct-bad", "slanted_quad.json"), 10, 1),
        (("construct-bad", "extended_quad_fan.json"), 9, 1),
        (("construct-bad", str(lowers)), 11, 1),
    ]
    for (command, name, *rest), most, flag_calls in cases:
        calls.clear()
        flags.clear()
        res = run_main(command, "--input", inp(name), *rest)
        assert res.returncode == 0, res.stderr
        assert len(calls) <= most, (command, name, len(calls))
        assert len(flags) == flag_calls, (command, name, len(flags))
    divisor = load_example("slanted_quad").divisor
    calls.clear()
    make_context(divisor, (-2, 3))
    assert len(calls) <= 2


def test_cli_context_equals_make_context():
    for name, direction in (
        ("slanted_quad.json", None),
        ("sevengon.json", None),  # polytope input, non-smooth fan
        ("sym16gon.json", "3,7"),
        ("rational_quad.json", None),
    ):
        args = argparse.Namespace(command="fg", input=inp(name), direction=direction)
        problem = cli.load_problem(args)
        assert problem.context == make_context(problem.divisor, problem.direction)


def test_integral_divisor_literals_are_stored_as_ints(tmp_path):
    with open(inp("slanted_quad.json")) as f:
        doc = json.load(f)
    doc["divisor"]["coefficients"] = [[2 * a, 2] for a in doc["divisor"]["coefficients"]]
    path = tmp_path / "halves.json"
    path.write_text(json.dumps(doc))
    problems = [cli.load_problem(argparse.Namespace(command="fg", input=name, direction=None))
                for name in (str(path), inp("slanted_quad.json"))]
    assert all(type(a) is int for p in problems for a in p.divisor.coeffs)
    assert problems[0].divisor == problems[1].divisor
    assert problems[0].context == problems[1].context
    rational = cli.load_problem(argparse.Namespace(
        command="fg", input=inp("rational_quad.json"), direction=None))
    assert any(type(a) is Fraction for a in rational.divisor.coeffs)


def test_input_that_json_cannot_decode_exits_2(tmp_path):
    # bytes that are not UTF-8, and nesting deeper than the decoder's
    # recursion limit, are invalid JSON like any syntax error
    cases = [b"\xff\xfe{", b'{"fan": ' + b"[" * 100000 + b"]" * 100000 + b"}"]
    for i, data in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_bytes(data)
        res = run_main("fg", "--input", str(path))
        assert (res.returncode, res.stdout) == (2, ""), i
        assert json.loads(res.stderr)["error"].startswith("input is not valid JSON: "), i


# more decimal digits than CPython's default int <-> str limit of 4,300
ONES = "1" * 5000


def run_past_digit_limit(*argv):
    """run_main, checking that the call leaves the process's int <-> str
    digit limit as it found it."""
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = get_limit()
    res = run_main(*argv)
    assert get_limit() == before
    return res


def test_direction_past_the_digit_limit():
    res = run_past_digit_limit("fg", "--input", inp("slanted_quad.json"), "--direction", "1," + ONES)
    assert (res.returncode, res.stderr) == (0, "")
    assert '"finitely_generated": ' in res.stdout


def test_integer_past_the_digit_limit_in_the_document(tmp_path):
    with open(inp("slanted_quad.json")) as f:
        text = f.read()
    path = tmp_path / "long_note.json"
    path.write_text(text.rstrip()[:-1] + f', "note": {ONES}}}')
    res = run_past_digit_limit("fg", "--input", str(path))
    assert res == run_main("fg", "--input", inp("slanted_quad.json"))
    assert res.returncode == 0


def test_theta_plot_past_the_digit_limit():
    res = run_past_digit_limit("plot", "--input", inp("slanted_quad.json"),
                               "--what", f"theta(1,{ONES})")
    assert (res.returncode, res.stdout) == (2, "")
    assert json.loads(res.stderr) == {"error": f"theta(1,{ONES}) is empty; nothing to draw"}


def test_nobody_area_past_the_digit_limit(tmp_path):
    # coefficients (a, 0, 0) with a = 10^2200 - 1 make P_D the triangle of
    # area a^2 / 2, whose numerator has 4,400 digits: 9...98 0...01
    path = tmp_path / "big_triangle.json"
    path.write_text('{"fan": {"rays": [[1, 0], [0, 1], [-1, -1]]}, "direction": [1, 1],'
                    ' "divisor": {"coefficients": [' + "9" * 2200 + ", 0, 0]}}")
    res = run_past_digit_limit("nobody", "--input", str(path))
    assert (res.returncode, res.stderr) == (0, "")
    assert f'"area": [\n    {"9" * 2199}8{"0" * 2199}1,\n    2\n  ]' in res.stdout


def test_witnesses_are_searched_only_where_printed(monkeypatch, capsys):
    # failing_cones yields cones and directions with no witness; fg-all
    # searches one for the cone it prints, and construct-bad none, since
    # the verdict that checks its divisor leaves its witnesses unread
    from toricfg import oracles

    calls, search = [], oracles.brute_decompose

    def counted(*args):
        calls.append(args)
        return search(*args)

    for module in (oracles, criterion):
        monkeypatch.setattr(module, "brute_decompose", counted)
    fan = load_example("extended_quad_fan", "fg-all").fan
    assert len(list(criterion.failing_cones(fan, (-2, 3)))) == 8
    assert calls == []
    assert cli.main(["construct-bad", "--input", inp("extended_quad_fan.json")]) == 0
    assert json.loads(capsys.readouterr().out)["constructed"] is True
    assert len(calls) == 0
    calls.clear()
    assert cli.main(["fg-all", "--input", inp("extended_quad_fan.json")]) == 0
    assert len(calls) == 1


def test_construct_bad_at_stretch_weight_16384(tmp_path):
    # every failing cone is a halfplane, and its edges' level ranges first
    # overlap at weight 16384, so a weight search capped at 4096 fails
    path = tmp_path / "wide_fan.json"
    path.write_text(json.dumps({"fan": {"rays": [[36063, 21292], [-1, 2], [-39012, -40403], [1, -2]]},
                                "direction": [-1, 0]}))
    res = run_main("construct-bad", "--input", str(path))
    assert (res.returncode, res.stderr) == (0, "")
    doc = json.loads(res.stdout)
    assert doc["sigma"] == {"kind": "halfplane", "generators": [[-1, 2], [1, -2]]}
    assert doc["divisor"] == [1530653930, 118427, 2566836280, 93418]


def test_construct_bad_searches_no_witness(monkeypatch, tmp_path):
    # the exhaustive witness search takes seconds on this polygon's cone,
    # and construct-bad prints no witness, so it must not run it
    def refuse(*args):
        raise AssertionError("witness searched")

    from toricfg import oracles

    for module in (oracles, criterion):
        monkeypatch.setattr(module, "brute_decompose", refuse)
    path = tmp_path / "long_vertex.json"
    path.write_text(json.dumps({
        "polytope": {"vertices": [[-5, 3], [[-5, 6], -5], [6, [-12, 2]], [10**9, 10**9 + 2]]},
        "direction": [-23, -29]}))
    res = run_main("construct-bad", "--input", str(path))
    assert (res.returncode, res.stderr) == (0, "")
    assert json.loads(res.stdout)["constructed"] is True


@settings(max_examples=100, derandomize=True)
@given(st.one_of(st.integers(), st.fractions()))
def test_exact_output_reads_back_in_int_normal_form(x):
    back = cli._frac_in(json.loads(json.dumps(x, default=cli._exact)))
    assert back == x
    assert type(back) is (int if x.denominator == 1 else Fraction)


def test_a_pair_reads_in_any_terms_and_is_written_in_lowest_terms():
    x = cli._frac_in([3, -6])
    assert x == Fraction(-1, 2)
    assert json.dumps(x, default=cli._exact) == "[-1, 2]"
    two = cli._frac_in([-4, -2])
    assert two == 2 and type(two) is int


def test_exact_output_refuses_other_types():
    with pytest.raises(TypeError):
        json.dumps(Decimal(1), default=cli._exact)


@pytest.mark.parametrize("literal, reason", [
    (True, "bad rational literal"),
    ([1, 0], "bad rational literal [1, 0]: use an integer or [num, den]"),
    ([1, True], "bad rational literal [1, True]: use an integer or [num, den]"),
    ([1, 2, 3], "bad rational literal [1, 2, 3]: use an integer or [num, den]"),
    (1.5, "bad rational literal 1.5: use an integer or [num, den]"),
])
def test_bad_rational_literals_keep_their_reasons(literal, reason):
    with pytest.raises(cli.InputError) as err:
        cli._frac_in(literal)
    assert str(err.value) == reason


def _no_float(token):
    raise AssertionError(f"float token {token} in JSON output")


def test_random_cli_calls_exit_0_or_2_and_write_no_float(tmp_path):
    # 200 calls, each drawn from random.Random(seed) for its own seed, on
    # the worked examples whose coordinates stay small (up to 100)
    docs = input_documents(100)
    path = tmp_path / "doc.json"
    exits = {0: 0, 2: 0}
    for seed in range(200):
        doc, argv = random_cli_call(random.Random(seed), docs)
        path.write_text(json.dumps(doc))
        try:
            res = run_main(*argv, "--input", str(path))
            assert res.returncode in exits, res.stderr
            if res.returncode == 2:
                assert set(json.loads(res.stderr)) == {"error"}
            elif argv[0] not in TEXT_COMMANDS:
                json.loads(res.stdout, parse_float=_no_float)
        except Exception as exc:
            raise AssertionError(f"seed {seed}: {argv} on {doc}") from exc
        exits[res.returncode] += 1
    assert exits == {0: 122, 2: 78}
