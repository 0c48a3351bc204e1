"""Golden digests of the command-line output.

Each case runs ``cli.main`` in-process on a bundled input, or on one of the
invalid documents in ``DOCS``, and compares the sha256 of its exit code,
stdout and stderr with a digest recorded from a known-good build.  Any change to a verdict, witness, JSON, CSV or SVG byte
shows up here; refactors must leave every digest unchanged.

To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and paste the printed
table over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest
from util import run_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _inp(name):
    return os.path.join(ROOT, "inputs", name)


SQ, SEVEN, UNIT = "slanted_quad.json", "sevengon.json", "unit_square.json"
SYM16, EXT = "sym16gon.json", "extended_quad_fan.json"
RQ = "rational_quad.json"  # rational coefficients: e_bar = 0 rows
BIG = "big_rational_zonotope.json"  # offsets near 2^43 / 3: bit-size stress

SQUARE = [[1, 0], [0, 1], [-1, 0], [0, -1]]
TRI = {"vertices": [[0, 0], [2, 0], [0, 2]]}

# Documents written to a temporary directory: invalid or incomplete ones,
# and fans with no bundled input.  No reason they fail with names the path,
# so their digests do not depend on it.
DOCS = {
    "not_json.json": "{",
    "not_object.json": [1, 2],
    "neither.json": {"direction": [1, 0]},
    "rays_not_list.json": {"fan": {"rays": 5}},
    "bad_ray.json": {"fan": {"rays": [[1, 0], [0, 1, 2]]}},
    "invalid_fan.json": {"fan": {"rays": [[1, 0], [0, 1]]}, "direction": [1, 0]},
    "misaligned.json": {"fan": {"rays": SQUARE}, "divisor": {"coefficients": [1, 1, 1]}},
    "bad_rational.json": {
        "fan": {"rays": SQUARE}, "divisor": {"coefficients": [1, [1, 0], 1, 1]},
    },
    "two_vertices.json": {"polytope": {"vertices": [[0, 0], [1, 0]]}},
    "bad_vertex.json": {"polytope": {"vertices": [[0, 0], [1, 0], [0]]}},
    "flat.json": {"polytope": {"vertices": [[0, 0], [1, 1], [2, 2]]}},
    "no_divisor.json": {"fan": {"rays": SQUARE}, "direction": [1, 0]},
    "not_ample.json": {
        "fan": {"rays": SQUARE}, "divisor": {"coefficients": [0, 0, 0, 1]},
        "direction": [1, 2],
    },
    "no_direction.json": {"polytope": TRI},
    "bad_direction.json": {"polytope": TRI, "direction": [1, True]},
    "bad_lk.json": {"polytope": TRI, "direction": [1, 2], "lk": [[1]]},
    "bound_zero.json": {"polytope": TRI, "bound": 0},
    "lambda_max_negative.json": {"polytope": TRI, "direction": [1, 2], "lambda_max": -1},
    "no_lk.json": {"polytope": TRI, "direction": [1, 2]},
    # a valid fan: construct-bad lowers two interior rays to non-integral
    # coefficients
    "lowers_two_rays.json": {
        "fan": {"rays": [[3, 2], [7, 5], [3, 4], [1, 3], [-3, -1], [-1, -6]]},
        "direction": [0, -1],
    },
}

CASES = [
    ("analyze", SQ, "--lambda-max", "10"),
    ("analyze", SEVEN, "--lambda-max", "4"),
    ("analyze", UNIT),
    ("analyze", EXT),  # exit 2: fan not smooth
    ("analyze", RQ, "--lambda-max", "6"),
    # lambda above 1 and directions with b = 0, b < 0 and |b| > 1
    ("analyze", SEVEN, "--direction=1,0", "--lambda-max", "10"),
    ("analyze", SQ, "--direction=2,-5", "--lambda-max", "10"),
    ("analyze", RQ, "--direction=1,-1", "--lambda-max", "10"),
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
    # no semigroup case: it would print about 10**12 rows
    ("scan", BIG, "--bound", "3"),
    ("analyze", BIG),
    ("analyze", BIG, "--direction", "3,7"),
    ("fg", BIG),
    ("nobody", BIG),
    ("construct-bad", EXT),  # skips the halfplane for a pointed cone
    ("construct-bad", EXT, "--direction", "1,2"),
    ("construct-bad", SQ),
    ("construct-bad", "lowers_two_rays.json"),
    ("fg-all", "lowers_two_rays.json"),
    ("plot", SQ, "--what", "polytope"),
    ("plot", SQ, "--what", "fan"),
    ("plot", SQ, "--what", "theta"),
    ("plot", SQ, "--what", "theta(3,2)"),
    ("plot", SQ, "--what", "nobody", "--flip-axes"),
    ("plot", SEVEN, "--what", "nobody"),
    # about 2^88 lattice points in the bounding box: drawn without the dot grid
    ("plot", BIG, "--what", "polytope"),
    ("plot", BIG, "--what", "nobody"),
    # exit 2, one reason each
    ("fg", "not_json.json"),
    ("fg", "not_object.json"),
    ("fg", "neither.json"),
    ("fg", "rays_not_list.json"),
    ("fg", "bad_ray.json"),
    ("fg", "invalid_fan.json"),
    ("fg", "misaligned.json"),
    ("fg", "bad_rational.json"),
    ("fg", "two_vertices.json"),
    ("fg", "bad_vertex.json"),
    ("fg", "flat.json"),
    ("fg", "no_divisor.json"),
    ("fg", "not_ample.json"),
    ("fg", "no_direction.json"),
    ("fg", "bad_direction.json"),
    ("fg", SQ, "--direction", "1;2"),
    ("fg", "bad_lk.json"),
    ("scan", "bound_zero.json"),
    ("analyze", "lambda_max_negative.json"),
    ("scan", SQ, "--bound", "0"),
    ("semigroup", SQ, "--lmax", "0"),
    ("analyze", SQ, "--lambda-max", "-2"),
    ("scan", SQ),  # no bound anywhere
    ("plot", "no_lk.json", "--what", "theta"),
    ("plot", SQ, "--what", "theta(1,100)"),  # empty
    ("plot", SQ, "--what", "circle"),
    # which reason wins when there are several
    ("scan", SQ, "--bound", "0", "--direction", "1;2"),
    ("fg", "no_divisor.json", "--direction", "1;2"),
    ("scan", "no_divisor.json"),
    ("plot", "no_direction.json", "--what", "circle"),
    ("plot", "not_ample.json", "--what", "fan"),
    # the ray-pair commands take any complete fan and no divisor
    ("construct-bad", "not_ample.json"),
    ("fg-all", "no_divisor.json"),
]


def _digest(case, tmp) -> str:
    command, name, *rest = case
    path = _inp(name)
    if name in DOCS:
        doc = DOCS[name]
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    res = run_main(command, "--input", path, *rest)
    blob = f"{res.returncode}\n{res.stdout}\0{res.stderr}"
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
    'analyze sevengon.json --direction=1,0 --lambda-max 10':
        '325d328d4e3a95471424bbd4e7272a9ec68fb25aa7ce8cedd3bc79658e238384',
    'analyze slanted_quad.json --direction=2,-5 --lambda-max 10':
        '79e807b9cf07832e2edb37c487c5067e7dbe666ae5c72ea1d00532f6a19ecec0',
    'analyze rational_quad.json --direction=1,-1 --lambda-max 10':
        'ec64cf8c53fdb0b3534f3d9136a6e706a8dbdb79c8746aa3b64a4c092fb34e8f',
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
    'analyze big_rational_zonotope.json':
        '0991a7eea482737ea4cdcf0a13c24250fdeadd55dd33eca3c123c7c5f9670fe8',
    'analyze big_rational_zonotope.json --direction 3,7':
        '533a52383c860616fb4f0196e8ab50c57531f47e4b608336f0977c4ec6c76612',
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
    'construct-bad lowers_two_rays.json':
        '5617d26711cc20cadf22ed159acec9e39923fdd0f09a77e7cc6d8e8783084772',
    'fg-all lowers_two_rays.json':
        'c83d16e548deff61b6fb189eda644c17032cb0b260d15fbf950ae0dbd1cf349d',
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
    'plot big_rational_zonotope.json --what polytope':
        '86b6dad39c872a1936c064c8e98834d4ac5fd3a7ccfe7030112728e32d761a7c',
    'plot big_rational_zonotope.json --what nobody':
        '30c3ac5958864de17bfdcdd03f16c2a2c76a07c42a5d4cd3214e253cf95c4e80',
    'fg not_json.json':
        '69e057ce9b656bcd5673d34bf403b16ce89517638b213f92727584947cb0e160',
    'fg not_object.json':
        'f6a302302623e5894c813fd5547ef238ac79f412f459938a67fe36b0f8e8763f',
    'fg neither.json':
        '9caf37e7853faa4a193fabd740682b9e724ebe8ba65119faaf7b94dead0c6a54',
    'fg rays_not_list.json':
        '16ce94954d266871f49f744e86bb7ac94466267094762cd95b0117100cc7daaf',
    'fg bad_ray.json':
        '8d24e514c41fa10ef5ecf3dd5b70f55e581d952f4541da6f1178b577abcc1a95',
    'fg invalid_fan.json':
        'd26bd6dc513a9c77f8d71f004683b0a22bc61661192a9b772041591e090db0fc',
    'fg misaligned.json':
        '52dd2e19d7303157a42d7e6168f1270c6b37d45bf26641639084e99426762480',
    'fg bad_rational.json':
        '7cbc2039c7a6e76bb2dbac2c51f6fec6a327bea94a59add3cfe5ff028bf6148e',
    'fg two_vertices.json':
        'a1aba14d9f34e14e88cca8bec78e8a985d7c9f819611ac126c7f3d27ab535116',
    'fg bad_vertex.json':
        'acd040294b55379ac8d2de0b00bea1afa727776723981590158766b855eecb3b',
    'fg flat.json':
        '3c7d9ac48e291a2fbe25e1f38e5d1619e181aec1cf9e8167a65764fdff667639',
    'fg no_divisor.json':
        'ccc468354b63822379869f25658cc3270bc542ac79e3693f7617c0eb42ecaa7a',
    'fg not_ample.json':
        '5f2358fc16f71968f6de1f12a6aac0f743e3d4ca1595036343f904d8e02b242a',
    'fg no_direction.json':
        'c32f5561ffb91fec6aec6b1609681ee50c055f6baff06b2c433ca283ed518cfe',
    'fg bad_direction.json':
        '52f363eff6927f8f5ef410ce93a8b9e46b7b18fae5434bbc443620b9d6862ccd',
    'fg slanted_quad.json --direction 1;2':
        'd1e7bc627bcd5ab2b3f3bbd3a148bfba85b5e8afebf6ba90ef580f2e7e69cd39',
    'fg bad_lk.json':
        'e464afd3fd5d8fee3f938263f14b0088d5b6819bdda4422b594defd37d8920a0',
    'scan bound_zero.json':
        '5c4ca309831ac9272e7ffc2d1096d147f1198ffd6ba881efe23c1bc46f1a5980',
    'analyze lambda_max_negative.json':
        '04af67900d7a566cfbda9bf4d3ae8d4fd274b0ff7b1c5a18bb1cd2fad53df3a4',
    'scan slanted_quad.json --bound 0':
        'e3136b179812eee66555c9ea2e9b18867340fb07790c53d3205f2ab4d2ea32dd',
    'semigroup slanted_quad.json --lmax 0':
        '5ca21970e212b7a32e4b48cb62b085e4d61b8ec30924e72cc2446b8beb2ab75f',
    'analyze slanted_quad.json --lambda-max -2':
        '9fd1a3c9f62d8e315b007281a4951092f26c4325fa4aaefa4542694115643840',
    'scan slanted_quad.json':
        '1e9f10a14b03063b6952a3ce3affa69e917243d6f0cfebc96038cf26f4969632',
    'plot no_lk.json --what theta':
        'e7810992a6be2c27084b9ef99e7aa99ee0b8bdab5896199b5eb59e3d51807b42',
    'plot slanted_quad.json --what theta(1,100)':
        'd5c0c9444c0b96d4dfc69929a908e6ef46b301513014f3873e0ca4f00e2550b5',
    'plot slanted_quad.json --what circle':
        'e2859c2dcbb9c2fb0c64969c2e77d768b9ceb9ad2dfb5f83748696ccc36bd528',
    'scan slanted_quad.json --bound 0 --direction 1;2':
        'e3136b179812eee66555c9ea2e9b18867340fb07790c53d3205f2ab4d2ea32dd',
    'fg no_divisor.json --direction 1;2':
        'ccc468354b63822379869f25658cc3270bc542ac79e3693f7617c0eb42ecaa7a',
    'scan no_divisor.json':
        'ccc468354b63822379869f25658cc3270bc542ac79e3693f7617c0eb42ecaa7a',
    'plot no_direction.json --what circle':
        'c32f5561ffb91fec6aec6b1609681ee50c055f6baff06b2c433ca283ed518cfe',
    'plot not_ample.json --what fan':
        '5f2358fc16f71968f6de1f12a6aac0f743e3d4ca1595036343f904d8e02b242a',
    'construct-bad not_ample.json':
        '7629d2315304d66fd01647cab62da74d46d34df77d3773a02542381d52d2aec4',
    'fg-all no_divisor.json':
        '475a6577f076220b420c3aefa4a4fe6afe0bb401184b070035fbc229a9e87fbd',
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_cli_output_is_byte_identical(case, tmp_path):
    assert _digest(case, tmp_path) == GOLDEN[_case_id(case)]


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(_case_id(c) for c in CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            print(f"    {_case_id(case)!r}:\n        {_digest(case, tmp)!r},")
