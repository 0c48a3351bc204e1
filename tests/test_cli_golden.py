"""Golden digests of the command-line output.

Each case runs ``cli.main`` in-process on a bundled input and compares the
sha256 of its exit code, stdout and stderr with a digest recorded from a
known-good build.  Any change to a verdict, witness, JSON, CSV or SVG byte
shows up here; refactors must leave every digest unchanged.

To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and paste the printed
table over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from toricfg import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _inp(name):
    return os.path.join(ROOT, "inputs", name)


SQ, SEVEN, UNIT = "slanted_quad.json", "sevengon.json", "unit_square.json"
SYM16, EXT = "sym16gon.json", "extended_quad_fan.json"
RQ = "rational_quad.json"  # rational coefficients: e_bar = 0 rows
BIG = "big_rational_zonotope.json"  # offsets near 2^43 / 3: bit-size stress

CASES = [
    ("analyze", SQ, "--lambda-max", "10"),
    ("analyze", SEVEN, "--lambda-max", "4"),
    ("analyze", UNIT),
    ("analyze", EXT),  # exit 2: fan not smooth
    ("analyze", RQ, "--lambda-max", "6"),
    ("semigroup", SQ, "--lmax", "3"),
    ("semigroup", SQ, "--lmax", "2", "--expand"),
    ("semigroup", SEVEN, "--lmax", "2"),
    ("semigroup", RQ, "--lmax", "3"),
    ("nobody", SQ),
    ("nobody", SEVEN),
    ("nobody", UNIT),
    ("fg", SQ),
    ("fg", SQ, "--direction", "0,1"),  # degenerate side: lifting fallback
    ("fg", SEVEN),
    ("fg", UNIT),
    ("fg", SYM16, "--direction", "3,7"),
    ("fg", SQ, "--direction", "2,4"),  # exit 2: direction not primitive
    ("fg", SYM16, "--direction", "29,31"),
    ("fg", RQ),
    ("fg-all", EXT),  # first failure is a halfplane
    ("fg-all", EXT, "--direction", "1,2"),
    ("fg-all", SQ),
    ("fg-all", SEVEN, "--direction", "1,1"),
    ("scan", SQ, "--bound", "4"),
    ("scan", SEVEN, "--bound", "3"),
    ("scan", SYM16, "--bound", "2"),
    ("scan", RQ, "--bound", "3"),
    # no semigroup or analyze case: both enumerate lattice points of a
    # polygon about 2^43 wide
    ("scan", BIG, "--bound", "3"),
    ("fg", BIG),
    ("nobody", BIG),
    ("construct-bad", EXT),  # skips the halfplane for a pointed cone
    ("construct-bad", EXT, "--direction", "1,2"),
    ("construct-bad", SQ),
    ("plot", SQ, "--what", "polytope"),
    ("plot", SQ, "--what", "fan"),
    ("plot", SQ, "--what", "theta"),
    ("plot", SQ, "--what", "theta(3,2)"),
    ("plot", SQ, "--what", "nobody", "--flip-axes"),
    ("plot", SEVEN, "--what", "nobody"),
]


def _argv(case):
    command, name, *rest = case
    return [command, "--input", _inp(name), *rest]


def _digest(case) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(_argv(case))
    blob = f"{rc}\n{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _case_id(case):
    return " ".join(case)


GOLDEN = {
    'analyze slanted_quad.json --lambda-max 10':
        'e5e0695cfd71b9135b23f50892529663b3ac24d28531498e1e043a23a7e50f0e',
    'analyze sevengon.json --lambda-max 4':
        'a309218340bc7fc9a855bfb57bb1d37020e13309af6c5b8b010d5c0073f39d5b',
    'analyze unit_square.json':
        '5e60da39846780197c5375e8a8ae3bc1bdab50af3e409648d6a6823bc3ed47d9',
    'analyze extended_quad_fan.json':
        '602f4e198c9b2447343735bb0fa023551a0502b069458f2bec4b0bb59e4afe0c',
    'analyze rational_quad.json --lambda-max 6':
        'fe4d342d838eeba0455a6d4585efd94cdcc65dd0497476b6bdb25b31741d7498',
    'semigroup slanted_quad.json --lmax 3':
        'a5b07dfea9fc44b1b3715d3e6be1fdd2f4115e8b3ea5032770082522007b50a5',
    'semigroup slanted_quad.json --lmax 2 --expand':
        '5f2030f5ab71067a352aff6caf75e4501792616d204b5d96c651b23b744c666b',
    'semigroup sevengon.json --lmax 2':
        '481750ec52af034c3bc79bb88f95c26f6a954566748e02b77d71410d1ac93e8d',
    'semigroup rational_quad.json --lmax 3':
        '047386be74310a68729223f480c6ca33f8dec3bcbc5f127f2211b660016512b0',
    'nobody slanted_quad.json':
        'b26725839b676b926d8e2a1686f2af94ee539a24149affafbf92b18439d1cd48',
    'nobody sevengon.json':
        'aa0fa540131678ae409bec1b4cb9837ca657da3a0f775dd23759c104184fa5bf',
    'nobody unit_square.json':
        '577a033a4b6eb67f13e441bb72986b261e66c2223e9bad0c7c69924ace16f582',
    'fg slanted_quad.json':
        '49b04962772ef27e74bf494c3f07f9c7b14dececf840ca70d3d51efad3da863e',
    'fg slanted_quad.json --direction 0,1':
        '842f0afdcb0d74f36608a92a662106226bc2878dbdfdd02ee3dc4d1aeefaab56',
    'fg sevengon.json':
        '06affc0e6638f6251f6b99280c810db4f711cb91ed0acc6c43a01556f058cbfa',
    'fg unit_square.json':
        'a2e890d2d50093b9f35685d7c986f1f7ab47e6f56a26ed2ad3779d80e820eba0',
    'fg sym16gon.json --direction 3,7':
        '263fe475f8adfd68bb455ca0e5f9f322957cabede097b0582ee175938e25c372',
    'fg slanted_quad.json --direction 2,4':
        'a5cccefcb05bf69ce1197e3ddc229ac3db09b629e7a6f6a39cc2e238d92797d7',
    'fg sym16gon.json --direction 29,31':
        'f4b5ec09a583ec524ef814f25c34e7db07328d2cd2c5234ff55d59e9058e0c64',
    'fg rational_quad.json':
        '49b04962772ef27e74bf494c3f07f9c7b14dececf840ca70d3d51efad3da863e',
    'fg-all extended_quad_fan.json':
        'f33c4435a2c01b6652d1d052ed8a81ef1667b9cd43adc26192d1a4bbc1c0424c',
    'fg-all extended_quad_fan.json --direction 1,2':
        'ce27f930d135a866d419bf55d9b1daf4483853af05f2c24340cfa528c473b8ca',
    'fg-all slanted_quad.json':
        'f6129d972c2de86d5649d02ade29171ac9e7c7390c4147ed0c2a683782806749',
    'fg-all sevengon.json --direction 1,1':
        '475a6577f076220b420c3aefa4a4fe6afe0bb401184b070035fbc229a9e87fbd',
    'scan slanted_quad.json --bound 4':
        '6ac321ea3d6e4d1e600d14b3756599f8cce1370b0e1ed114becb39d33e60628c',
    'scan sevengon.json --bound 3':
        '4c1c34d1b8a745e2b0e82f5e9bb29fb92768997eaf4f97b3e12ae5f9e01f5e1c',
    'scan sym16gon.json --bound 2':
        '1cd28db5315cd88d97af0c6bcce8ee7b318604293f5cbbdfd654b80d6520907d',
    'scan rational_quad.json --bound 3':
        '897dc9c49007d1dd0b2c8a8d6b5c325fee98aef56aac82bb76679ba6317b4901',
    'scan big_rational_zonotope.json --bound 3':
        'ba4d4420c4e84347ae97b2052cffa73c36aeb0925156b2530eb5c7185f40c091',
    'fg big_rational_zonotope.json':
        'a7c6dc1eba32aca5c88047ac47f581219e60d53bb0aef29d42b0c8e5cad6875c',
    'nobody big_rational_zonotope.json':
        'a9bea9ae4a6157646c8bfa2d40a553a18b9d4e9b79f08ee0833aaa75e12867bc',
    'construct-bad extended_quad_fan.json':
        'c00a6295097243722bee97630be1e8c7822ba2b00014a2131501838cfcef8f5d',
    'construct-bad extended_quad_fan.json --direction 1,2':
        '85ef566b4ccb7b2234943203b876c2afc571d9e300dcd0c414c97f2de3d7407c',
    'construct-bad slanted_quad.json':
        'd7749a00a8e1c8c8809109a759d882042114c11b98d8fabfd60ec8059da32512',
    'plot slanted_quad.json --what polytope':
        'd5be8b7c285b42633946e3228b2bbae325e6c9250353a3d51c4464e744a7a1eb',
    'plot slanted_quad.json --what fan':
        '649f1d4286035ce5be563bbf253cd84bb9ebdf27831369631169da949c6d648e',
    'plot slanted_quad.json --what theta':
        '9e46d60cdfdc9978b6da4d33104bc3353bc48339c1c249d08c6edd6ae95133c8',
    'plot slanted_quad.json --what theta(3,2)':
        '0eb03d7f53a3e5e9712e1c80a41a4fdab13afe8d7b2d656b3e1bc4cfc3d79d9c',
    'plot slanted_quad.json --what nobody --flip-axes':
        '507ef161e8a004baad4ebb1839c29c6bac18073f397c455105f97023469d653f',
    'plot sevengon.json --what nobody':
        '2bcc4d4714b1c15b9635a15463e9be1ac548b2a0351115f379706ad9a6087a23',
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_cli_output_is_byte_identical(case):
    assert _digest(case) == GOLDEN[_case_id(case)]


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(_case_id(c) for c in CASES)


if __name__ == "__main__":
    for case in CASES:
        print(f"    {_case_id(case)!r}:\n        {_digest(case)!r},")
