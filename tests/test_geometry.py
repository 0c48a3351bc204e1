import random
import time
from fractions import Fraction as F
from functools import cmp_to_key
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from toricfg import geometry
from toricfg.fans import ToricDivisor, divisor_polytope
from toricfg.geometry import (
    ChordWalk,
    RatPolygon,
    UnboundedRegion,
    dot,
    int_vector,
    lattice_points,
    level_count,
    neg,
    primitivize,
    rot90,
    width,
)

from paper import colon, contains_polygon, minkowski_sum
from util import (
    SEED,
    column_level_count,
    fraction_from_halfplanes,
    fraction_polygon_of_points,
    helly_certificates,
    line_interval_chords,
    line_interval_max_chord,
    load_example,
    naive_lattice_points,
    polygon_contains,
    random_ample_divisor,
    random_direction,
    random_polygon,
    random_smooth_fan,
    rational_pools,
    rationals,
    views,
)
from toricfg.criterion import max_segment
from toricfg.semigroup import make_context, theta

SQUARE = RatPolygon.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
PD = RatPolygon.from_halfplanes([((-1, 0), 0), ((0, -1), 0), ((1, 2), -8), ((0, 1), -3)])
NABLA_PRIME = RatPolygon.from_halfplanes(
    [(r, min(0, dot((-3, -2), r))) for r in [(-1, 0), (0, -1), (1, 2), (0, 1)]]
)
V = (-2, 3)


def test_halfplanes_unit_square():
    p = RatPolygon.from_halfplanes(
        [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)]
    )
    assert p == SQUARE
    assert p.dim == 2


def test_halfplanes_nef_polytope_of_flag_curve():
    assert set(NABLA_PRIME.vertices) == {(0, 0), (-7, 0), (-3, -2), (0, -2)}


def test_halfplanes_infeasible_is_empty():
    p = RatPolygon.from_halfplanes([((1, 0), 1), ((-1, 0), 1)])
    assert p.is_empty and p.dim == -1


def test_halfplanes_unbounded_raises():
    with pytest.raises(UnboundedRegion):
        RatPolygon.from_halfplanes([((1, 0), 0), ((0, 1), 0)])
    with pytest.raises(UnboundedRegion):
        RatPolygon.from_halfplanes([((1, 0), 0), ((-1, 0), -1)])  # a strip


def test_redundant_halfplanes_dropped():
    p = RatPolygon.from_halfplanes(
        [((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1), ((1, 1), -5)]
    )
    assert p == SQUARE
    assert len(p.halfplanes) == 4


def test_colon_homothety():
    assert colon(SQUARE.dilate(2), SQUARE) == SQUARE


def test_colon_running_values():
    theta11 = colon(PD, NABLA_PRIME)
    assert set(theta11.vertices) == {(0, 0), (-1, 0), (0, F(-1, 2))}
    theta32 = colon(PD.dilate(3), NABLA_PRIME.dilate(2))
    assert set(theta32.vertices) == {(0, 0), (-10, 0), (0, -5)}


def test_minkowski_identity_and_running_values():
    origin = RatPolygon.from_vertices([(0, 0)])
    assert minkowski_sum(PD, origin) == PD
    theta11 = colon(PD, NABLA_PRIME)
    nabla = RatPolygon.from_vertices([(0, 0), (-3, -2)])
    assert set(minkowski_sum(theta11, nabla).vertices) == {
        (0, 0), (-1, 0), (-4, -2), (-3, F(-5, 2)), (0, F(-1, 2)),
    }
    assert set(minkowski_sum(theta11, NABLA_PRIME).vertices) == {
        (0, 0), (-8, 0), (-3, F(-5, 2)), (0, F(-5, 2)),
    }


def test_width_values():
    assert width(SQUARE, (1, 1)) == 2
    assert width(PD, V) == 25
    assert width(colon(PD, NABLA_PRIME), V) == F(7, 2)
    assert width(RatPolygon.empty(), V) is None


def test_lattice_points_fixtures():
    assert len(lattice_points(SQUARE)) == 4
    theta11 = colon(PD, NABLA_PRIME)
    assert list(lattice_points(theta11)) == [(-1, 0), (0, 0)]
    theta32 = colon(PD.dilate(3), NABLA_PRIME.dilate(2))
    assert len(lattice_points(theta32)) == 36
    segment = RatPolygon.from_vertices([(1, F(-1, 2)), (1, F(5, 2))])
    assert list(lattice_points(segment)) == [(1, 0), (1, 1), (1, 2)]
    trapezoid = RatPolygon.from_vertices([(0, 0), (3, 0), (3, 2), (0, 1)])
    assert list(lattice_points(trapezoid)) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
    ]


def test_project_interval_values():
    projection = lambda p: (p.support_min(V), p.support_max(V))
    assert projection(PD) == (-9, 16)
    assert projection(NABLA_PRIME) == (-6, 14)
    assert projection(colon(PD, NABLA_PRIME)) == (F(-3, 2), 2)
    assert width(RatPolygon.empty(), V) is None


def test_degenerate_polygons_first_class():
    seg = RatPolygon.from_vertices([(0, 0), (2, 4), (1, 2)])
    assert seg.dim == 1
    assert list(lattice_points(seg)) == [(0, 0), (1, 2), (2, 4)]
    pt = RatPolygon.from_vertices([(3, 5)])
    assert pt.dim == 0 and list(lattice_points(pt)) == [(3, 5)]
    assert width(pt, (7, 9)) == 0


# -- properties --------------------------------------------------------------

def test_representation_round_trip_corpus():
    rng = random.Random(20240811)
    for _ in range(120):
        p = random_polygon(rng)
        if p.is_empty:
            continue
        again = RatPolygon.from_vertices(p.vertices)
        assert again == p
        if p.dim == 2:
            assert RatPolygon.from_halfplanes(p.halfplanes) == p


coord = st.integers(min_value=-8, max_value=8)
point = st.tuples(coord, coord)


def random_point(rng, bound=8):
    return (rng.randint(-bound, bound), rng.randint(-bound, bound))


def random_lattice_polygon(rng, bounds):
    """The hull of 3 to 7 points with coordinates in [-b, b], for b drawn
    from bounds: small bounds give degenerate and nested polygons."""
    b = rng.choice(bounds)
    return RatPolygon.from_vertices([random_point(rng, b) for _ in range(rng.randint(3, 7))])


@settings(max_examples=120, derandomize=True)
@given(SEED)
def test_colon_adjunction(seed):
    rng = random.Random(seed)
    # q is a point for bound 0, so p : q is p moved
    p, q = random_lattice_polygon(rng, (1, 8)), random_lattice_polygon(rng, (0, 1, 8))
    c = colon(p, q)
    (x, y), den = random_point(rng), rng.randint(1, 3)
    u = (F(x, den), F(y, den))
    shifted_inside = all(
        polygon_contains(p, (u[0] + w[0], u[1] + w[1])) for w in q.vertices
    )
    assert polygon_contains(c, u) == shifted_inside


@settings(max_examples=60, derandomize=True)
@given(st.lists(point, min_size=3, max_size=6), st.lists(point, min_size=3, max_size=6))
def test_colon_of_minkowski_sum_recovers_summand(ps, qs):
    p = RatPolygon.from_vertices(ps)
    q = RatPolygon.from_vertices(qs)
    if p.is_empty or q.is_empty:
        return
    s = minkowski_sum(p, q)
    c = colon(s, q)
    assert contains_polygon(c, p)
    # the normal fan of s refines that of p, so equality holds
    assert c == p


@settings(max_examples=60, derandomize=True)
@given(SEED)
def test_width_additive_and_linear(seed):
    # p and q are each a point a quarter of the time; any v with entries up
    # to 8, zero and non-primitive ones too, a quarter of them of max-norm
    # at most 1
    rng = random.Random(seed)
    p, q = (random_lattice_polygon(rng, (0, 1, 8, 8)) for _ in range(2))
    v, lam = random_point(rng, rng.choice((1, 8, 8, 8))), rng.randint(0, 5)
    assert width(minkowski_sum(p, q), v) == width(p, v) + width(q, v)
    assert width(p.dilate(lam), v) == lam * width(p, v)


PRIMITIVE = [(a, b) for a in range(-3, 4) for b in range(-3, 4)
             if (a, b) != (0, 0) and gcd(a, b) == 1]


def _positively_spanning(normals) -> bool:
    # no nonzero direction pairs nonnegatively with every normal; the
    # extreme such directions would be perpendicular to some normal
    return not any(
        all(dot(d, m) >= 0 for m in normals)
        for n in normals for d in ((-n[1], n[0]), (n[1], -n[0]))
    )


def random_helly_case(rng):
    """3 to 6 halfplanes whose normals, drawn from PRIMITIVE, positively
    span the plane, with offsets a/den, -6 <= a <= 6 and 1 <= den <= 3."""
    while True:
        normals = [rng.choice(PRIMITIVE) for _ in range(rng.randint(3, 6))]
        if _positively_spanning(normals):
            return [(n, F(rng.randint(-6, 6), rng.randint(1, 3))) for n in normals]


@settings(max_examples=150, derandomize=True)
@given(SEED)
def test_helly_certificates_decide_emptiness(seed):
    hps = random_helly_case(random.Random(seed))
    normals, offsets = [n for n, _ in hps], [o for _, o in hps]
    certified = any(
        sum(w * offsets[i] for i, w in zip(idx, weights)) > 0
        for idx, weights in helly_certificates(normals)
    )
    assert RatPolygon.from_halfplanes(hps).is_empty == certified


def _intersect_or_unbounded(kernel, halfplanes):
    """kernel(halfplanes) as a (vertices, halfplanes, dim) triple, or
    "unbounded"."""
    try:
        out = kernel(halfplanes)
    except UnboundedRegion:
        return "unbounded"
    if isinstance(out, RatPolygon):
        # the stored form is canonical: its scale is the lcm of the vertex
        # denominators, which the Fraction views alone would not show
        assert out.scale == lcm(1, *(t.denominator for q in out.vertices for t in q))
        return views(out)
    return out


DENOMINATORS = (1, 2, 3, 7, 2**40 + 15)


def _offsets(den):
    """Offsets a/den with -10 den <= a <= 3 den, nearest 0 first: every
    one for a small den; for the large one the integers, their
    neighbours +-1/den and +-2**e/den, the spread of sizes that a drawn
    integer in that range takes."""
    if den < 2**16:
        nums = range(-10 * den, 3 * den + 1)
    else:
        nums = {k * den + r for k in range(-10, 4) for r in (-1, 0, 1)}
        nums |= {sign * 2**e for sign in (1, -1) for e in range(44)}
    return sorted((F(a, den) for a in nums if -10 * den <= a <= 3 * den),
                  key=lambda x: (abs(x), x))


# one pick from a precomputed list: an integer, or for one denominator any
# offset or one in [-1, 1], where a drawn integer mostly lands; so integral
# and near-zero offsets come at least as often as from drawn numerators
OFFSET_POOLS = [_offsets(1)] + [
    values for den in DENOMINATORS
    for values in (_offsets(den), [x for x in _offsets(den) if abs(x) <= 1])]
NORMALS = sorted(((a, b) for a in range(-4, 5) for b in range(-4, 5) if (a, b) != (0, 0)),
                 key=lambda n: (max(map(abs, n)), n))


# The halfplane, hull, chord and lattice-point properties draw one SEED
# per example and build the case with random.Random(seed) from the pools
# above and below: hypothesis prints the seed of a failing case, and
# drawing one integer costs far less than drawing every normal, offset
# and coordinate through hypothesis.
def _case(case, build):
    """The case of one example: an @example's own value, or what build
    draws from random.Random(case) for a drawn seed."""
    return build(random.Random(case)) if isinstance(case, int) else case


def random_offset(rng):
    return rng.choice(rng.choice(OFFSET_POOLS))


def random_halfplanes(rng, max_size=8):
    """1 to max_size halfplanes with offsets from the pools and normals
    from the first 8, 24 or all 80 of NORMALS (max-norm 1, 2 or 4), so
    that repeated and antiparallel normals come often."""
    normals = NORMALS[:rng.choice((8, 24, 80))]
    return [(rng.choice(normals), random_offset(rng)) for _ in range(rng.randint(1, max_size))]


def random_degenerate_halfplanes(rng):
    """Up to 24 halfplanes, most of them tight at one rational point or
    in antiparallel pairs with equal or nearly equal offsets, so the
    intersection is often a point, a segment, a zero-width strip or just
    empty."""
    den = rng.choice(DENOMINATORS)
    point = (F(rng.randint(-5, 5), den), F(rng.randint(-5, 5), den))
    # tight: every slack 0, so all lines but the random ones pass through
    # the point
    slacks = (0,) if rng.random() < 0.5 else (0, F(1, den), F(-1, den), F(1, 7))
    out = []
    for _ in range(rng.randint(1, 12)):
        kind, n = rng.randint(0, 4), rng.choice(NORMALS)
        o = dot(point, n) - rng.choice(slacks)  # through the point, or just off it
        if kind <= 1:
            out.append((n, o))
        elif kind <= 3:  # a strip of zero or nearly zero width
            out += [(n, o), (neg(n), -o - rng.choice(slacks))]
        else:
            out.append((n, random_offset(rng)))
    return out


@settings(max_examples=400, derandomize=True)
@given(SEED)
@example([((1, 0), 0), ((-1, 0), 0), ((0, 1), F(1, 3)), ((0, -1), F(-1, 3))])  # point
@example([((0, 2), 0), ((0, -1), 0), ((1, 0), 0), ((-3, 0), -1)])  # segment
@example([((1, 0), 0), ((-1, 0), -1)])  # strip: unbounded
@example([((1, 0), 1), ((-2, 0), 0)])  # antiparallel pair: empty
@example([((1, 1), F(5, 7))])  # one halfplane: unbounded
@example([((1, 0), 0), ((-1, 0), 0)])  # a line: unbounded
@example([((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)])  # infeasible strip and a third normal: empty
@example([((1, 0), 1), ((0, 1), 1), ((-1, -1), 0)])  # positively spanning triple: empty
@example([((1, 1), 1), ((1, -3), -1), ((-1, 0), -3)])  # int offsets, the meet (2, 2, 4) = (1/2, 1/2)
def test_from_halfplanes_matches_fraction_kernel(case):
    halfplanes = _case(case, random_halfplanes)
    assert (_intersect_or_unbounded(RatPolygon.from_halfplanes, halfplanes)
            == _intersect_or_unbounded(fraction_from_halfplanes, halfplanes))


def test_from_halfplanes_matches_fraction_kernel_on_dilated_16gon():
    p = load_example("sym16gon", "scan").p_d.dilate(F(7, 3))
    hps = list(p.halfplanes)
    assert len(hps) == 16
    assert RatPolygon.from_halfplanes(hps) == p
    assert views(p) == fraction_from_halfplanes(hps)


@settings(max_examples=300, derandomize=True)
@given(SEED)
@example([(n, 0) for n in [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)]]
         + [((1, -1), F(-1, 3))])  # eight lines, seven through the origin: the point
@example([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -2), ((1, 1), 0)])  # segment
@example([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -2), ((1, 1), 3)])  # zero-width strip, cut off
@example([((1, 0), F(1, 7)), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)])  # strip of width -1/7: empty
@example([((1, 1), 1), ((1, -3), -1), ((3, -1), 1), ((-1, 0), -3)])  # three lines through (1/2, 1/2)
def test_from_halfplanes_matches_fraction_kernel_on_degenerate_input(case):
    halfplanes = _case(case, random_degenerate_halfplanes)
    assert (_intersect_or_unbounded(RatPolygon.from_halfplanes, halfplanes)
            == _intersect_or_unbounded(fraction_from_halfplanes, halfplanes))


@settings(max_examples=200, derandomize=True)
@given(SEED)
def test_from_halfplanes_ignores_input_order(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        halfplanes = random_degenerate_halfplanes(rng)
    else:
        halfplanes = random_halfplanes(rng, max_size=24)
    shuffled = list(halfplanes)
    rng.shuffle(shuffled)
    assert (_intersect_or_unbounded(RatPolygon.from_halfplanes, shuffled)
            == _intersect_or_unbounded(RatPolygon.from_halfplanes, halfplanes))


@settings(max_examples=60, derandomize=True)
@given(SEED)
def test_from_halfplanes_on_one_normal_set_with_many_offsets(seed):
    # one normal set, with repeated, non-primitive and unsorted normals,
    # meets several offset vectors in a row, so every call after the first
    # reads the prepared normal set; each result must still match the
    # Fraction oracle
    rng = random.Random(seed)
    normals = [rng.choice(NORMALS) for _ in range(rng.randint(1, 8))]
    normals += [(k * a, k * b) for a, b in rng.sample(normals, rng.randint(0, len(normals)))
                for k in [rng.randint(1, 3)]]
    rng.shuffle(normals)
    point = (F(rng.randint(-5, 5), rng.choice(DENOMINATORS)), F(rng.randint(-5, 5), 3))
    vectors = [[random_offset(rng) for _ in normals] for _ in range(4)]
    vectors += [[0] * len(normals), [dot(point, n) for n in normals]]
    hits = geometry._normal_set.cache_info().hits
    for offsets in vectors:
        halfplanes = list(zip(normals, offsets))
        assert (_intersect_or_unbounded(RatPolygon.from_halfplanes, halfplanes)
                == _intersect_or_unbounded(fraction_from_halfplanes, halfplanes))
    assert geometry._normal_set.cache_info().hits >= hits + len(vectors) - 1


def test_cached_normal_sets_still_reject_float_and_zero_normals():
    # 1.0 == 1 and hash(1.0) == hash(1), so a plain tuple key would let
    # float normals hit the entry their int twins left; the typed cache
    # key keeps every call checking its normals
    square = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
    assert RatPolygon.from_halfplanes(square) == SQUARE
    for normal in ((1.0, 0), (1, 0.0), (1.0, 0.0)):
        for _ in range(2):
            with pytest.raises(TypeError):
                RatPolygon.from_halfplanes([(normal, 0)] + square[1:])
    assert RatPolygon.from_halfplanes([((F(1), F(0)), 0)] + square[1:]) == SQUARE
    for normal in ((0, 0), (F(0), 0), (F(0), F(0))):
        for _ in range(2):
            with pytest.raises(ValueError):
                RatPolygon.from_halfplanes(square + [(normal, 0)])


@pytest.mark.parametrize("polygon", [
    load_example("sym16gon", "scan").p_d,
    load_example("sym16gon", "scan").p_d.dilate(F(7, 3)),
], ids=["16-ray P_D", "7/3-dilated sym16gon"])
def test_from_halfplanes_meets_each_line_a_bounded_number_of_times(polygon, monkeypatch):
    # the deque walk makes one meet per line; a search over every pair of
    # lines would make n(n - 1)/2 = 120 calls here
    calls = []
    real = geometry.meet
    monkeypatch.setattr(geometry, "meet", lambda *a: calls.append(a) or real(*a))
    hps = list(polygon.halfplanes)
    assert len(hps) == 16
    assert RatPolygon.from_halfplanes(hps) == polygon
    assert 0 < len(calls) <= 2 * len(hps)


def _half_plane_then_det(a, b):
    # angles in [0, pi) before [pi, 2pi); inside a half, a before b iff
    # det(a, b) > 0
    ha, hb = (0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1 for u in (a, b))
    d = a[0] * b[1] - a[1] * b[0]
    return ha - hb if ha != hb else (d < 0) - (d > 0)


@settings(max_examples=100, derandomize=True)
@given(SEED)
def test_angular_sorted_matches_the_half_plane_and_det_comparison(seed):
    # parallel and repeated vectors keep their input order in both sorts
    rng = random.Random(seed)
    vectors = [random_point(rng, rng.choice((1, 3, 8))) for _ in range(rng.randint(1, 12))]
    vectors = [u for u in vectors if u != (0, 0)]
    assert geometry.angular_sorted(vectors) == sorted(vectors, key=cmp_to_key(_half_plane_then_det))


def test_primitivize_ints_and_rationals_agree():
    for u in [(6, -4), (0, -5), (7, 0), (-3, -9), (2**70, 3 * 2**70)]:
        assert primitivize(u) == primitivize((F(u[0]), F(u[1]))) == primitivize((F(u[0], 5), F(u[1], 5)))
    assert primitivize((6, -4)) == (3, -2)
    for zero in [(0, 0), (F(0), 0)]:
        with pytest.raises(ValueError):
            primitivize(zero)


def random_offset_points(rng):
    """1 to 8 points with coordinates from the offset pools."""
    return [(random_offset(rng), random_offset(rng)) for _ in range(rng.randint(1, 8))]


@settings(max_examples=200, derandomize=True)
@given(SEED)
def test_from_vertices_matches_fraction_hull(case):
    points = _case(case, random_offset_points)
    assert views(RatPolygon.from_vertices(points)) == fraction_polygon_of_points(points)


def test_lattice_points_against_naive_oracle():
    rng = random.Random(99)
    polys = [SQUARE, PD, NABLA_PRIME, colon(PD, NABLA_PRIME)]
    polys += [random_polygon(rng) for _ in range(60)]
    for p in polys:
        if p.is_empty:
            continue
        assert list(lattice_points(p)) == naive_lattice_points(p)


def test_area_shoelace():
    assert PD.area() == 15
    assert SQUARE.area() == 1
    assert RatPolygon.from_vertices([(0, 0), (1, 0)]).area() == 0


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        RatPolygon.from_vertices([(0.5, 1), (1, 0), (0, 0)])
    with pytest.raises(TypeError):
        RatPolygon.from_halfplanes([((1, 0), 0.25), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)])


def test_float_and_fractional_normals_are_rejected():
    square = [((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
    with pytest.raises(TypeError):
        RatPolygon.from_halfplanes([((1.7, 0), 0)] + square)
    with pytest.raises(ValueError):
        RatPolygon.from_halfplanes([((F(3, 2), 0), 0)] + square)
    assert RatPolygon.from_halfplanes([((F(2, 2), 0), 0)] + square) == SQUARE
    assert int_vector([F(-6, 3), 4]) == (-2, 4)
    assert int_vector((True, 0)) == (1, 0)
    with pytest.raises(TypeError):
        int_vector(("1", 0))


SMALL_RATIONAL = rationals(6, 7)
RATIONAL_POINT = st.tuples(SMALL_RATIONAL, SMALL_RATIONAL)
RATIONAL_POOLS = rational_pools(6, 7)
PRIMITIVES_8 = [(a, b) for a in range(-8, 9) for b in range(-8, 9) if gcd(a, b) == 1]


def random_rational_point(rng):
    """A point whose coordinates are drawn as SMALL_RATIONAL draws them:
    an integer or any value, half and half."""
    return (rng.choice(rng.choice(RATIONAL_POOLS)), rng.choice(rng.choice(RATIONAL_POOLS)))


def random_rational_points(rng, min_size=0):
    """min_size to 7 points drawn by random_rational_point."""
    return [random_rational_point(rng) for _ in range(rng.randint(min_size, 7))]


def random_points_and_direction(rng):
    """1 to 7 rational points and a primitive direction of max-norm at most 8."""
    return random_rational_points(rng, 1), rng.choice(PRIMITIVES_8)


@settings(max_examples=80, derandomize=True)
@given(SEED)
def test_support_values_are_fraction_dot_extremes(seed):
    # any d with entries up to 9, zero and non-primitive ones too
    rng = random.Random(seed)
    p = RatPolygon.from_vertices(random_rational_points(rng, 1))
    d = (rng.randint(-9, 9), rng.randint(-9, 9))
    dots = [dot(q, d) for q in p.vertices]
    assert p.support_min(d) == min(dots) and p.support_max(d) == max(dots)
    assert p.face(d) == [q for q, h in zip(p.vertices, dots) if h == min(dots)]
    moved = RatPolygon.from_vertices(
        [(x + F(1, 3), y - F(2, 5)) for x, y in p.vertices]
    ).dilate(F(7, 2))
    assert moved.support_min(d) == min(dot(q, d) for q in moved.vertices)


def assert_longest_chord(p, v):
    """ChordWalk's longest chord and the midpoint of its levels, which
    ends() reads, against the line-interval oracle."""
    walk = ChordWalk(p, v)
    length, levels = line_interval_max_chord(p, v)
    assert walk.length == length
    assert walk.ends()[0] == (levels[0] + levels[-1]) / 2


@settings(max_examples=120, derandomize=True)
@given(SEED)
@example(([(0, 0)], (2, 3)))  # a point
@example(([(F(1, 2), 0), (1, 5)], (1, 0)))  # a segment crossing the levels
@example(([(0, 0), (2, 0), (2, 1), (0, 1)], (1, 0)))  # tied levels 0 and 2
@example(([(0, 0), (3, 1), (1, 4)], (1, 1)))
def test_max_chord_matches_line_interval_oracle(case):
    points, v = _case(case, random_points_and_direction)
    assert_longest_chord(RatPolygon.from_vertices(points), v)


@settings(max_examples=120, derandomize=True)
@given(SEED)
@example(([(0, 0)], (2, 3)))  # a point
@example(([(0, 0), (0, 3)], (1, 0)))  # a segment on one level
@example(([(0, 0), (2, 0), (2, 1), (0, 1)], (1, 0)))  # edges on both extreme levels
def test_vertex_level_chords_match_line_interval_oracle(case):
    points, v = _case(case, random_points_and_direction)
    p = RatPolygon.from_vertices(points)
    assert ChordWalk(p, v).chords() == line_interval_chords(p, v)


@settings(max_examples=60, derandomize=True)
@given(SEED)
def test_max_chord_on_segments_orthogonal_to_v(seed):
    # a and t drawn as SMALL_RATIONAL draws them; a quarter of the
    # directions have max-norm 1
    rng = random.Random(seed)
    a, t = random_rational_point(rng), rng.choice(rng.choice(RATIONAL_POOLS))
    v = random_direction(rng, rng.choice((1, 8, 8, 8)))
    m = rot90(v)
    p = RatPolygon.from_vertices([a, (a[0] + t * m[0], a[1] + t * m[1])])
    assert_longest_chord(p, v)
    assert ChordWalk(p, v).length == abs(t) and ChordWalk(p, v).ends()[0] == dot(a, v)


@settings(max_examples=80, derandomize=True)
@given(SEED)
def test_max_chord_at_edge_normals(seed):
    # v orthogonal to an edge puts that edge on an extreme level
    rng, p = random.Random(seed), RatPolygon.empty()
    while p.dim < 2:
        p = RatPolygon.from_vertices(random_rational_points(rng, 3))
    v = rng.choice(p.halfplanes)[0]
    assert_longest_chord(p, neg(v) if rng.randrange(2) else v)


@settings(max_examples=80, derandomize=True)
@given(SEED)
def test_max_chord_on_zonotopes(seed):
    # parallel edge pairs make runs of equally long chords (tied levels);
    # 2 to 4 generators with entries up to 3, shifted by a rational point
    rng = random.Random(seed)
    p = RatPolygon.from_vertices([random_rational_point(rng)])
    v = rng.choice(PRIMITIVES_8)
    for _ in range(rng.randint(2, 4)):
        g = (rng.randint(-3, 3), rng.randint(-3, 3))
        p = minkowski_sum(p, RatPolygon.from_vertices([(0, 0), g]))
    assert_longest_chord(p, v)


def test_max_chord_ties_and_empty():
    hexagon = RatPolygon.from_vertices([(0, 0), (2, 0), (3, 1), (3, 3), (1, 3), (0, 2)])
    assert ChordWalk(hexagon, (1, 0)).length == 3  # at levels 1 and 2
    assert ChordWalk(hexagon, (1, 0)).ends()[0] == F(3, 2)
    assert ChordWalk(RatPolygon.empty(), (1, 0)).length is None


# a lattice translation far out, where every ring coordinate is a big int
FAR = (2**40 + 15, -2**43)


@settings(max_examples=150, derandomize=True)
@given(SEED)
@example([(F(1, 2), F(-7, 3)), (F(1, 2), 4)])  # a vertical segment
@example([(-2, F(1, 2)), (-2, 3), (F(5, 2), F(-1, 3)), (F(5, 2), 2)])  # vertical edges at both ends
@example([(F(1, 2), 0), (F(1, 2), 3), (2, 1)])  # a vertical edge left of the first column
def test_lattice_points_match_naive_oracle_under_translation(case):
    # the oracle scans a bounding box, so it is shifted rather than run far out
    points = _case(case, lambda rng: random_rational_points(rng, 1))
    p = RatPolygon.from_vertices(points)
    expected = naive_lattice_points(p)
    assert list(lattice_points(p)) == expected
    moved = RatPolygon.from_vertices([(x + FAR[0], y + FAR[1]) for x, y in points])
    assert list(lattice_points(moved)) == [(x + FAR[0], y + FAR[1]) for x, y in expected]


def random_level_case(rng):
    """(points, scale, v): 0 to 7 rational points, a scale of 1 or 7/3
    and a primitive direction with entries up to 1, 10 or 10**3 (a third
    of the draws each), where (0, 0) stands for (1, 0)."""
    bound = rng.choice((1, 10, 1000))
    a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
    g = gcd(a, b)
    return (random_rational_points(rng), rng.choice((1, F(7, 3))),
            (a // g, b // g) if g else (1, 0))


@settings(max_examples=150, derandomize=True)
@given(SEED)
@example(([], 1, (2, -5)))  # no points
@example(([(F(1, 2), F(-7, 3)), (F(1, 2), 4)], 1, (1, 0)))  # no column
@example(([(F(1, 3), 1), (F(2, 3), 1)], 1, (0, 1)))  # a chord with no point
@example(([(0, 0), (0, 6), (4, 1)], 1, (3, -2)))  # columns of two residue classes
@example(([(0, 0), (7, 0), (7, 3), (0, 3)], 1, (1, 7)))  # progressions that overlap
@example(([(0, 0), (6, 1), (5, 2)], F(7, 3), (997, -1000)))  # thin chords, long v
@example(([(0, 3), (2, 3)], F(7, 3), (0, 1)))  # one level, 7, at scale 7/3
@example(([(0, 0), (2, 1), (1, 3)], 1, (0, 1)))  # the top vertex on the integer level 3
def test_level_count_is_the_number_of_distinct_levels(case):
    # the floor sums against the column oracle and the bounding-box points,
    # on polygons of dim -1 to 2, and on their translates far out
    points, scale, v = _case(case, random_level_case)
    p = RatPolygon.from_vertices([(scale * x, scale * y) for x, y in points]) \
        if points else RatPolygon.empty()
    expected = naive_lattice_points(p)
    levels = len({dot(q, v) for q in expected})
    found = lattice_points(p)
    assert len(found) == len(expected)
    assert level_count(found, v) == column_level_count(geometry._column_walk(p), v) == levels
    if points:
        moved = lattice_points(RatPolygon.from_vertices(
            [(x + FAR[0], y + FAR[1]) for x, y in p.vertices]))
        assert (len(moved), level_count(moved, v)) == (len(expected), levels)


def test_level_count_reads_no_column(monkeypatch):
    # len and level_count read the polygon, not its 161 columns or 6,161
    # points, which are read once before for the expected values
    ctx = load_example("slanted_quad").context
    poly = theta(ctx, 1, 0).dilate(20)
    listed = list(lattice_points(poly))
    expected = len({dot(q, ctx.flag.v) for q in listed})
    assert (len(listed), len({x for x, _ in listed})) == (6161, 161)

    def refuse(*args):
        raise AssertionError("a column was read")

    monkeypatch.setattr(geometry, "_column_walk", refuse)
    points = lattice_points(poly)
    assert len(points) == 6161
    assert level_count(points, ctx.flag.v) == expected


def test_first_point_of_a_wide_triangle_reads_one_column():
    # 10**15 + 1 columns; iterating reads them one at a time
    start = time.perf_counter()
    points = lattice_points(RatPolygon.from_vertices([(0, 0), (10**15, 0), (0, 1)]))
    walk = iter(points)
    assert (next(walk), next(walk), next(walk)) == ((0, 0), (0, 1), (1, 0))
    assert len(points) == 10**15 + 2
    assert level_count(points, (0, 1)) == 2
    assert time.perf_counter() - start < 0.5


@settings(max_examples=120, derandomize=True)
@given(SEED)
@example([])  # empty
@example([(0, 0), (2, 1)])  # a segment that misses the column x = 1
@example([(0, 0), (2, 1), (0, F(1, 3))])  # a triangle that misses it
@example([(F(1, 3), 0), (F(2, 3), 5)])  # no column at all
def test_lattice_point_columns_match_naive_oracle(case):
    points = _case(case, random_rational_points)
    p = RatPolygon.from_vertices(points) if points else RatPolygon.empty()
    found, expected = lattice_points(p), naive_lattice_points(p)
    columns = list(geometry._column_walk(p))
    xs = [x for x, _, _ in columns]
    assert all(x < x2 for x, x2 in zip(xs, xs[1:]))
    assert all(lo <= hi for _, lo, hi in columns)
    assert len(found) == len(expected)
    assert list(found) == expected


def test_tall_triangle_is_counted_without_listing_its_points():
    # 1.5 * 10**12 points in three columns
    start = time.perf_counter()
    p = RatPolygon.from_vertices([(0, 0), (2, 0), (0, 10**12)])
    points = lattice_points(p)
    assert list(geometry._column_walk(p)) == [(0, 0, 10**12), (1, 0, 5 * 10**11), (2, 0, 0)]
    assert len(points) == 15 * 10**11 + 3
    assert level_count(points, (1, 0)) == 3
    assert level_count(points, (1, 1)) == 10**12 + 1
    assert time.perf_counter() - start < 0.5


BOX = [((1, 0), -9), ((-1, 0), -9), ((0, 1), -9), ((0, -1), -9)]


@st.composite
def polygon_and_oracle(draw):
    """A polygon of dim -1 to 2 with the (vertices, halfplanes, dim) triple
    of its Fraction oracle: from_vertices of rational points,
    from_halfplanes of mostly degenerate halfplanes inside a box, or P_D
    of a random smooth fan with its ample divisor scaled by 1, 7/3 or
    2**40 + 15."""
    kind = draw(st.sampled_from(("vertices", "halfplanes", "p_d")))
    if kind == "vertices":
        points = draw(st.lists(RATIONAL_POINT, min_size=1, max_size=7))
        return RatPolygon.from_vertices(points), fraction_polygon_of_points(points)
    if kind == "halfplanes":
        hps = random_degenerate_halfplanes(random.Random(draw(SEED))) + BOX
        return RatPolygon.from_halfplanes(hps), fraction_from_halfplanes(hps)
    rng = random.Random(draw(st.integers(0, 2**32)))
    fan = random_smooth_fan(rng)
    scale = draw(st.sampled_from((1, F(7, 3), 2**40 + 15)))
    d = ToricDivisor.make(fan, [scale * a for a in random_ample_divisor(rng, fan).coeffs])
    hps = [(r, -a) for r, a in zip(fan.rays, d.coeffs)]
    return divisor_polytope(d), fraction_from_halfplanes(hps)


@settings(max_examples=120, derandomize=True)
@given(polygon_and_oracle(), st.integers(0, 6), st.fractions(0, 6, max_denominator=7))
def test_stored_form_is_canonical_and_its_views_match_the_oracles(pair, lam, c):
    p, oracle = pair
    assert p.scale == lcm(*(t.denominator for q in p.vertices for t in q))
    assert all(type(t) is int for q in p.ring for t in q)
    assert all(type(o) is int for _, o in p.lines)
    assert views(p) == oracle
    for factor in (lam, c):
        scaled = [(factor * x, factor * y) for x, y in p.vertices]
        assert p.dilate(factor) == RatPolygon.from_vertices(scaled)
    if not p.is_empty:
        for q in (RatPolygon.from_vertices(p.vertices), RatPolygon.from_halfplanes(p.halfplanes)):
            assert q == p and hash(q) == hash(p)


def test_integral_input_builds_no_fraction(monkeypatch):
    # the kernels run on the stored ints: on integral data no Fraction is
    # built until a Fraction view is read
    divisor = load_example("sym16gon", "scan").divisor
    ctx = make_context(divisor, (3, 7))
    hps = [(r, -a) for r, a in zip(divisor.fan.rays, divisor.coeffs)]
    built = []
    real_new = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or real_new(cls, *a, **k))
    real_coprime = getattr(F, "_from_coprime_ints", None)
    if real_coprime is not None:  # newer Pythons build arithmetic results here
        monkeypatch.setattr(F, "_from_coprime_ints",
                            classmethod(lambda cls, n, d: built.append((n, d)) or real_coprime(n, d)))
    p_d = RatPolygon.from_halfplanes(hps)
    t = theta(ctx, 2, 3)
    big = t.dilate(3)
    points = lattice_points(big)
    assert built == []
    assert p_d == ctx.p_d and p_d.dim == t.dim == 2 and len(points) > 1000
    assert big.vertices and built
    # the maximal cross-section builds only its result: the level, the
    # length, the two maximizing levels and one Fraction pair per end
    built.clear()
    seg = max_segment(ChordWalk(p_d, (3, 7)))
    assert len(built) <= 8 and seg.q_hat == ctx.q_hat
