import os
import subprocess
import sys
import types

import pytest

import toricfg
from toricfg import cli, cones, criterion, semigroup
from toricfg.geometry import RatPolygon
from util import SRC, load_example, p1p1_fan, src_env


def test_star_import_binds_no_module():
    namespace = {}
    exec("from toricfg import *", namespace)
    namespace.pop("__builtins__")
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert sorted(namespace) == sorted(toricfg.__all__)
    assert "failing_cones" in namespace and "is_strongly_decomposable" in namespace


def test_importing_the_cli_loads_no_dataclass_machinery():
    # the records are named tuples: a fresh import of the CLI loads neither
    # dataclasses nor the inspect, ast and dis modules it would bring in
    code = ("import sys; before = set(sys.modules); import toricfg.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


def test_importing_the_cli_loads_every_module_of_the_package():
    # the package holds only what runs: a fresh import of the CLI reaches
    # every module under src/toricfg, so none is kept for tests or scripts
    names = sorted(n[:-3] for n in os.listdir(os.path.join(SRC, "toricfg")) if n.endswith(".py"))
    expected = sorted("toricfg" if n == "__init__" else "toricfg." + n for n in names)
    code = ("import sys, toricfg.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'toricfg'))")
    run = subprocess.run([sys.executable, "-c", code], env=src_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == expected


def records():
    """One instance of every record type, built by the code that builds it."""
    problem = load_example("slanted_quad")
    ctx = problem.context
    verdict = criterion.is_finitely_generated(ctx)
    return [
        ctx, ctx.flag, ctx.p_d, ctx.divisor, ctx.fan, cones.cone("N", (1, 0), (0, 1)),
        semigroup.semigroup_slice(ctx, 2), semigroup.cut_construction(ctx, 2, 1),
        semigroup.theta_extremal(ctx, 1, 0), semigroup.newton_okounkov_body(ctx),
        verdict, verdict.segment, criterion.fg_for_all_divisors(p1p1_fan(), (1, 2)),
        criterion.construct_bad_divisor(p1p1_fan(), cones.halfplane("N", (1, 0), (1, 2)), (1, 2)),
        problem,
    ]


def test_record_fields_are_read_only():
    built = records()
    assert {type(r).__name__ for r in built} == {
        "FlagContext", "FlagData", "RatPolygon", "ToricDivisor", "Fan2", "Cone2",
        "SemigroupSlice", "CutPieces", "ThetaExtremal", "NOBody", "FGVerdict",
        "SegmentData", "FGAllResult", "BadDivisorConstruction", "Problem",
    }
    for record in built:
        for name in record._fields:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)


def test_cached_views_leave_equality_and_hash_alone():
    # a read view sits in the instance dict, outside the compared fields
    p = load_example("slanted_quad").context.p_d
    assert p.vertices and p.halfplanes and {"vertices", "halfplanes"} <= set(vars(p))
    fresh = RatPolygon.from_vertices(p.vertices)
    assert "vertices" not in vars(fresh) and p == fresh and hash(p) == hash(fresh)
    ctx, fresh_ctx = load_example("slanted_quad").context, load_example("slanted_quad").context
    assert ctx.q_hat and "q_hat" in vars(ctx) and "q_hat" not in vars(fresh_ctx)
    assert ctx == fresh_ctx and hash(ctx) == hash(fresh_ctx)
