import argparse
import os
import subprocess
import sys
import types

import pytest

import toricfg
from toricfg import cli, cones, criterion, semigroup
from toricfg.gallery import p1p1_fan, slanted_quad_context
from toricfg.geometry import RatPolygon
from util import src_env

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "inputs")


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


def records():
    """One instance of every record type, built by the code that builds it."""
    ctx = slanted_quad_context()
    verdict = criterion.is_finitely_generated(ctx)
    problem = cli.load_problem(argparse.Namespace(
        command="fg", input=os.path.join(INPUTS, "slanted_quad.json"), direction=None))
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
    p = slanted_quad_context().p_d
    assert p.vertices and p.halfplanes and {"vertices", "halfplanes"} <= set(vars(p))
    fresh = RatPolygon.from_vertices(p.vertices)
    assert "vertices" not in vars(fresh) and p == fresh and hash(p) == hash(fresh)
    ctx, fresh_ctx = slanted_quad_context(), slanted_quad_context()
    assert ctx.q_hat and "q_hat" in vars(ctx) and "q_hat" not in vars(fresh_ctx)
    assert ctx == fresh_ctx and hash(ctx) == hash(fresh_ctx)
