import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricfg.cones import (
    NotInInterior,
    NotPointed,
    cone,
    dual_cone,
    exists_pairing_one,
    halfplane,
    hilbert_basis,
    is_strongly_decomposable,
    ray,
)
from toricfg.criterion import decomposition
from toricfg.geometry import det, dot, neg, rot90, solve_pairing_one
from toricfg.oracles import brute_decompose

from util import (
    cone_contains,
    enumerated_hilbert_basis,
    interior_point,
    random_cone,
    random_direction,
)

FIRST_QUADRANT = cone((1, 0), (0, 1))


def test_cone_normalization():
    c = cone((0, 1), (1, 0))  # clockwise input gets flipped
    assert c.generators == ((1, 0), (0, 1))
    assert cone((2, 4), (3, 0)).generators == ((1, 0), (1, 2))
    assert ray((6, 10)).generators == ((3, 5),)


def test_halfplane_side_normalization():
    h1 = halfplane((1, 0), (0, 1))
    h2 = halfplane((-1, 0), (5, 3))
    assert h1 == h2
    assert cone_contains(h1, (0, 1)) and cone_contains(h1, (1, 0)) and cone_contains(h1, (-1, 0))
    assert not cone_contains(h1, (0, -1))
    assert h1.strictly_contains((0, 1)) and not h1.strictly_contains((1, 0))


def test_dual_cone_fixtures():
    assert dual_cone(cone((1, 0), (0, 1))) == cone((1, 0), (0, 1))
    assert dual_cone(cone((0, 1), (-2, 1))) == cone((-1, 0), (1, 2))
    h = dual_cone(ray((1, 0)))
    assert h.kind == "halfplane" and cone_contains(h, (0, 5)) and cone_contains(h, (0, -5))
    assert cone_contains(h, (3, 1)) and not cone_contains(h, (-1, 0))
    assert dual_cone(h) == ray((1, 0))


def test_dual_is_involution():
    rng = random.Random(4)
    for _ in range(60):
        c = random_cone(rng)
        assert dual_cone(dual_cone(c)) == c


def test_hilbert_basis_fixtures():
    assert set(hilbert_basis(FIRST_QUADRANT)) == {(1, 0), (0, 1)}
    assert set(hilbert_basis(cone((0, 1), (-2, 1)))) == {(0, 1), (-1, 1), (-2, 1)}
    assert hilbert_basis(ray((3, 5))) == ((3, 5),)
    with pytest.raises(NotPointed):
        hilbert_basis(halfplane((1, 0), (0, 1)))


def test_hilbert_basis_generates_and_is_minimal():
    rng = random.Random(11)
    for _ in range(40):
        c = random_cone(rng, bound=5)
        basis = hilbert_basis(c)
        g1, g2 = c.generators
        # sample of cone lattice points: nonneg integer combos of generators
        # plus the basis elements themselves
        sample = set(basis)
        for i in range(3):
            for j in range(3):
                sample.add((i * g1[0] + j * g2[0], i * g1[1] + j * g2[1]))
        sample.discard((0, 0))
        for p in sample:
            assert _generated_by(p, basis, c), (p, basis)
        for drop in basis:
            rest = tuple(b for b in basis if b != drop)
            assert not _generated_by(drop, rest, c), (drop, basis)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=4, max_size=4))
def test_hilbert_basis_walk_matches_the_enumeration(xs):
    g1, g2 = (xs[0], xs[1]), (xs[2], xs[3])
    assume((0, 0) not in (g1, g2) and det(g1, g2) != 0)
    c = cone(g1, g2)
    assert hilbert_basis(c) == enumerated_hilbert_basis(c)


def test_hilbert_basis_walk_at_large_determinant():
    # one step per basis element: cone((1, 0), (1, d)) has the d + 1
    # elements (1, k), and the enumeration would read d^2 box points
    d = 10**4
    assert hilbert_basis(cone((1, 0), (1, d))) == tuple((1, k) for k in range(d + 1))


def _generated_by(p, gens, c, depth=0):
    if p == (0, 0):
        return True
    if depth > 40 or not cone_contains(c, p):
        return False
    return any(
        _generated_by((p[0] - g[0], p[1] - g[1]), gens, c, depth + 1)
        for g in gens
        if cone_contains(c, (p[0] - g[0], p[1] - g[1]))
    )


def test_strong_decomposability_fixtures():
    assert is_strongly_decomposable((1, 1), FIRST_QUADRANT) is False
    assert is_strongly_decomposable((2, 2), FIRST_QUADRANT) is True
    assert decomposition((2, 2), FIRST_QUADRANT) == ((1, 1), (1, 1))
    assert is_strongly_decomposable((-2, 3), cone((-1, 0), (1, 2))) is True
    assert decomposition((-2, 3), cone((-1, 0), (1, 2))) == ((-2, 1), (0, 2))
    with pytest.raises(NotInInterior):
        is_strongly_decomposable((1, 0), FIRST_QUADRANT)


def test_halfplane_decomposability_is_boundary_distance():
    h = halfplane((1, 0), (0, 1))
    assert not is_strongly_decomposable((5, 1), h)  # lattice distance one from the boundary line
    assert is_strongly_decomposable((5, 2), h)
    wit = decomposition((5, 2), h)
    assert wit[0][1] >= 1 and wit[1][1] >= 1
    assert (wit[0][0] + wit[1][0], wit[0][1] + wit[1][1]) == (5, 2)


def test_hilbert_test_matches_brute_force():
    rng = random.Random(20240813)
    for _ in range(200):
        c = random_cone(rng, bound=5)
        w = interior_point(rng, c, spread=3)
        dec = is_strongly_decomposable(w, c)
        brute = brute_decompose(w, c)
        assert dec == (brute is not None)
        if dec:
            assert decomposition(w, c) == brute


def test_decomposability_dilation_monotone():
    rng = random.Random(17)
    for _ in range(80):
        c = random_cone(rng, bound=4)
        w = interior_point(rng, c, spread=3)
        if is_strongly_decomposable(w, c):
            for lam in (2, 3):
                assert is_strongly_decomposable((lam * w[0], lam * w[1]), c)


def test_exists_pairing_one_fixtures():
    assert exists_pairing_one(cone((1, 0), (0, 1)), (0, 1))
    assert not exists_pairing_one(cone((0, 1), (-2, 1)), (-2, 3))
    # derived by the affine-line algorithm and confirmed by brute force
    assert not exists_pairing_one(cone((0, 1), (-1, 1)), (-2, 3))
    assert _brute_pairing_one(cone((0, 1), (-1, 1)), (-2, 3)) is False
    assert exists_pairing_one(ray((3, 5)), (2, -1))
    assert not exists_pairing_one(ray((3, 5)), (1, 1))
    # the halfplane y >= 0: a transverse line always meets it in lattice
    # points; the parallel lines y = 1 and y = -1 lie inside resp. outside
    upper = halfplane((1, 0), (0, 1))
    assert exists_pairing_one(upper, (1, 0)) and exists_pairing_one(upper, (2, 3))
    assert exists_pairing_one(upper, (0, 1))
    assert not exists_pairing_one(upper, (0, -1))


def _brute_pairing_one(c, v, box=40):
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if cone_contains(c, (x, y)) and dot((x, y), v) == 1:
                return True
    return False


def test_exists_pairing_one_against_brute_force():
    rng = random.Random(23)
    for _ in range(80):
        c = random_cone(rng, bound=4)
        v = None
        from util import random_direction

        v = random_direction(rng, bound=3)
        assert exists_pairing_one(c, v) == _brute_pairing_one(c, v, box=25)
    for _ in range(40):
        g = random_direction(rng, bound=3)
        h = halfplane(g, rng.choice((rot90(g), neg(rot90(g)))))
        v = rng.choice((rot90(g), neg(rot90(g)), random_direction(rng, bound=3)))
        assert exists_pairing_one(h, v) == _brute_pairing_one(h, v, box=25)


def _bridge_cases(rng):
    """150 pointed cones with an interior point, then 60 halfplanes with a
    point at lattice distance 1 to 3 from the boundary line (a point
    spread along (g, -g) would sit on that line)."""
    for _ in range(150):
        c = random_cone(rng, bound=5)
        yield c, interior_point(rng, c, spread=3)
    for _ in range(60):
        g = random_direction(rng, bound=5)
        h = halfplane(g, rng.choice((rot90(g), neg(rot90(g)))))
        g = h.generators[0]
        unit = solve_pairing_one(rot90(g))  # det(g, unit) == 1
        d, t = rng.randint(1, 3), rng.randint(-3, 3)
        yield h, (d * unit[0] + t * g[0], d * unit[1] + t * g[1])


def test_pairing_bridge_to_decomposability():
    # independent routes to the same verdict: the pairing-one line search
    # on the dual cone, the Hilbert-basis pairing test, and the exhaustive
    # witness search, plus boundary distance > 1 for halfplanes (whose
    # dual is a ray); non-primitive w are always decomposable
    rng = random.Random(29)
    non_primitive = decomposable = 0
    halfplane_verdicts = set()
    for c, w in _bridge_cases(rng):
        if rng.random() < 0.25:
            w = (2 * w[0], 2 * w[1])
        primitive = gcd(w[0], w[1]) == 1
        by_pairing = not primitive or not exists_pairing_one(dual_cone(c), w)
        by_hilbert = 1 not in {dot(h, w) for h in enumerated_hilbert_basis(dual_cone(c))}
        by_brute = brute_decompose(w, c) is not None
        assert by_pairing == by_hilbert == by_brute
        assert is_strongly_decomposable(w, c) == by_pairing
        if c.kind == "halfplane":
            assert by_pairing == (det(c.generators[0], w) > 1)
            halfplane_verdicts.add((primitive, by_pairing))
        else:
            non_primitive += not primitive
            decomposable += by_brute
    assert non_primitive > 20 and 0 < decomposable < 150
    assert halfplane_verdicts == {(True, False), (True, True), (False, True)}


def _large_bridge_cases(rng):
    """Dual cones c of determinant up to about 2*10^3, each with points w
    of the interior of sigma = c^dual with coordinates up to 10^5: most
    pair to 1, 2 or 3 with a generator h of c and lie far out along the
    wall <h, w> = 0, the rest anywhere inside."""
    cones_made = 0
    while cones_made < 12:
        h1 = (rng.randint(-60, 60), rng.randint(-60, 60))
        h2 = (rng.randint(-60, 60), rng.randint(-60, 60))
        if gcd(*h1) != 1 or gcd(*h2) != 1 or not 500 < abs(det(h1, h2)) <= 2000:
            continue
        cones_made += 1
        c = cone(h1, h2)
        basis = enumerated_hilbert_basis(c)
        g1, g2 = dual_cone(c).generators
        for h, other in (c.generators, c.generators[::-1]) * 8:
            # <other, rot90(h)> = det(h, other), so t of that sign moves
            # w deeper into sigma along the wall of h
            far = 10**5 // (2 * max(map(abs, h)))
            t = rng.randint(far // 2, far) * (1 if det(h, other) > 0 else -1)
            k, u = rng.randint(1, 3), solve_pairing_one(h)
            yield c, basis, (k * u[0] - t * h[1], k * u[1] + t * h[0])
        for _ in range(4):
            i, j = rng.randint(1, 10**3), rng.randint(1, 10**3)
            yield c, basis, (i * g1[0] + j * g2[0], i * g1[1] + j * g2[1])


def test_pairing_one_search_at_large_coordinates():
    # the integer line search against the Hilbert-basis pairing test; the
    # walls g1 and -g2 of c pair with w to opposite signs, and the line's
    # base point has coordinates up to 10^5
    rng = random.Random(31)
    verdicts = set()
    for c, basis, w in _large_bridge_cases(rng):
        assert all(abs(x) <= 10**5 for x in w) and dual_cone(c).strictly_contains(w)
        if gcd(*w) != 1:
            continue
        found = exists_pairing_one(c, w)
        assert found == any(dot(h, w) == 1 for h in basis), (c, w)
        verdicts.add(found)
    assert verdicts == {True, False}
    # a halfplane {det(g, x) >= 0} meets every line <x, w> = 1 that
    # crosses its boundary, and the parallel line only when w = rot90(g)
    for _ in range(200):
        g = random_direction(rng, bound=300)
        h = halfplane(g, rot90(g))
        t, d = rng.randint(-300, 300), rng.choice((-1, 0, 0, 1, 2))
        w = (t * g[0] - d * g[1], t * g[1] + d * g[0])  # <g, w> = t * |g|^2
        if gcd(*w) != 1:
            w = rng.choice((rot90(g), neg(rot90(g))))
        assert exists_pairing_one(h, w) == (dot(g, w) != 0 or w == rot90(g)), (g, w)


def test_cone_degenerations():
    c = cone((1, 0), (0, 1), (5, -7))  # inside plays no part here
    assert c == FIRST_QUADRANT
    assert cone((2, 0), (1, 0)) == ray((1, 0))
    left = cone((0, 1), (0, -1), inside=(-1, 0))
    right = cone((0, 1), (0, -1), inside=(3, 2))
    assert left == halfplane((0, 1), (-1, 0)) and left.strictly_contains((-1, 0))
    assert right == halfplane((0, -2), (1, 0)) and right.strictly_contains((1, 0))
    assert left.generators == ((0, 1), (0, -1)) and right.generators == ((0, -1), (0, 1))
    with pytest.raises(ValueError):
        cone((0, 1), (0, -3))
