import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from toricfg.gallery import sym16gon
from toricfg.geometry import (
    RatPolygon,
    UnboundedRegion,
    colon,
    dot,
    helly_certificates,
    lattice_points,
    line_interval,
    minkowski_sum,
    project_interval,
    width,
)

from util import (
    fraction_from_halfplanes,
    fraction_polygon_of_points,
    naive_lattice_points,
    random_polygon,
)

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
    assert lattice_points(theta11) == [(-1, 0), (0, 0)]
    theta32 = colon(PD.dilate(3), NABLA_PRIME.dilate(2))
    assert len(lattice_points(theta32)) == 36


def test_project_interval_values():
    assert project_interval(PD, V) == (-9, 16)
    assert project_interval(NABLA_PRIME, V) == (-6, 14)
    assert project_interval(colon(PD, NABLA_PRIME), V) == (F(-3, 2), 2)
    assert project_interval(RatPolygon.empty(), V) is None


def test_degenerate_polygons_first_class():
    seg = RatPolygon.from_vertices([(0, 0), (2, 4), (1, 2)])
    assert seg.dim == 1
    assert lattice_points(seg) == [(0, 0), (1, 2), (2, 4)]
    pt = RatPolygon.from_vertices([(3, 5)])
    assert pt.dim == 0 and lattice_points(pt) == [(3, 5)]
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


@settings(max_examples=120, derandomize=True)
@given(
    st.lists(point, min_size=3, max_size=7),
    st.lists(point, min_size=3, max_size=7),
    point,
    st.integers(min_value=1, max_value=3),
)
def test_colon_adjunction(ps, qs, u, den):
    p = RatPolygon.from_vertices(ps)
    q = RatPolygon.from_vertices(qs)
    c = colon(p, q)
    u = (F(u[0], den), F(u[1], den))
    shifted_inside = all(
        p.contains((u[0] + w[0], u[1] + w[1])) for w in q.vertices
    )
    assert c.contains(u) == shifted_inside


@settings(max_examples=60, derandomize=True)
@given(st.lists(point, min_size=3, max_size=6), st.lists(point, min_size=3, max_size=6))
def test_colon_of_minkowski_sum_recovers_summand(ps, qs):
    p = RatPolygon.from_vertices(ps)
    q = RatPolygon.from_vertices(qs)
    if p.is_empty or q.is_empty:
        return
    s = minkowski_sum(p, q)
    c = colon(s, q)
    assert c.contains_polygon(p)
    # the normal fan of s refines that of p, so equality holds
    assert c == p


@settings(max_examples=60, derandomize=True)
@given(
    st.lists(point, min_size=3, max_size=6),
    st.lists(point, min_size=3, max_size=6),
    st.tuples(coord, coord),
    st.integers(min_value=0, max_value=5),
)
def test_width_additive_and_linear(ps, qs, v, lam):
    p = RatPolygon.from_vertices(ps)
    q = RatPolygon.from_vertices(qs)
    if p.is_empty or q.is_empty:
        return
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


@settings(max_examples=150, derandomize=True)
@given(st.lists(
    st.tuples(st.sampled_from(PRIMITIVE), st.integers(-6, 6), st.integers(1, 3)),
    min_size=3, max_size=6,
))
def test_helly_certificates_decide_emptiness(data):
    normals = [n for n, _, _ in data]
    assume(_positively_spanning(normals))
    offsets = [F(o, den) for _, o, den in data]
    certified = any(
        sum(w * offsets[i] for i, w in zip(idx, weights)) > 0
        for idx, weights in helly_certificates(normals)
    )
    hps = list(zip(normals, offsets))
    assert RatPolygon.from_halfplanes(hps).is_empty == certified


def _intersect_or_unbounded(kernel, halfplanes):
    try:
        return kernel(halfplanes)
    except UnboundedRegion:
        return "unbounded"


DENOMINATORS = (1, 2, 3, 7, 2**40 + 15)
OFFSET = st.sampled_from(DENOMINATORS).flatmap(
    lambda den: st.integers(-10 * den, 3 * den).map(lambda a: F(a, den))
)
NORMAL = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda n: n != (0, 0))


@settings(max_examples=400, derandomize=True)
@given(st.lists(st.tuples(NORMAL, OFFSET), min_size=1, max_size=8))
@example([((1, 0), 0), ((-1, 0), 0), ((0, 1), F(1, 3)), ((0, -1), F(-1, 3))])  # point
@example([((0, 2), 0), ((0, -1), 0), ((1, 0), 0), ((-3, 0), -1)])  # segment
@example([((1, 0), 0), ((-1, 0), -1)])  # strip: unbounded
@example([((1, 0), 1), ((-2, 0), 0)])  # antiparallel pair: empty
@example([((1, 1), F(5, 7))])  # one halfplane: unbounded
def test_from_halfplanes_matches_fraction_kernel(halfplanes):
    assert (_intersect_or_unbounded(RatPolygon.from_halfplanes, halfplanes)
            == _intersect_or_unbounded(fraction_from_halfplanes, halfplanes))


def test_from_halfplanes_matches_fraction_kernel_on_dilated_16gon():
    p = sym16gon().dilate(F(7, 3))
    hps = list(p.halfplanes)
    assert len(hps) == 16
    assert RatPolygon.from_halfplanes(hps) == fraction_from_halfplanes(hps) == p


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.tuples(OFFSET, OFFSET), min_size=1, max_size=8))
def test_from_vertices_matches_fraction_hull(points):
    assert RatPolygon.from_vertices(points) == fraction_polygon_of_points(points)


RATIONAL = st.fractions(-8, 8, max_denominator=5)
VECTOR = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=300, derandomize=True)
@given(
    st.lists(st.tuples(VECTOR.filter(lambda n: n != (0, 0)), RATIONAL), max_size=5),
    st.tuples(RATIONAL, RATIONAL),
    VECTOR.filter(lambda d: d != (0, 0)),
)
@example([((0, 1), 1)], (0, 0), (1, 0))  # parallel constraint excludes the line
@example([((0, 1), -1)], (0, 0), (1, 0))  # parallel constraint keeps it: unbounded
@example([((1, 0), 0)], (0, 0), (1, 0))  # bounded below only
@example([((-1, 0), 0)], (0, 0), (1, 0))  # bounded above only
def test_line_interval_is_the_feasible_parameter_set(halfplanes, base, step):
    span = line_interval(halfplanes, base, step)
    eps = F(1, 10**6)
    samples = {F(0), F(10**6), F(-(10**6))}
    if span is not None:
        samples |= {e + d for e in span if e is not None for d in (-eps, 0, eps)}

    def feasible(t):
        u = (base[0] + t * step[0], base[1] + t * step[1])
        return all(dot(u, n) >= o for n, o in halfplanes)

    for t in samples:
        inside = span is not None and (span[0] is None or span[0] <= t) and (
            span[1] is None or t <= span[1]
        )
        assert inside == feasible(t)


def test_line_interval_ends():
    # the property above cannot tell these encodings of an empty or
    # unbounded set apart
    assert line_interval([((0, 1), 1)], (0, 0), (1, 0)) is None
    assert line_interval([((0, 1), -1)], (0, 0), (1, 0)) == (None, None)
    assert line_interval([((1, 0), 1), ((-1, 0), 1)], (0, 0), (1, 0)) == (1, -1)


def test_lattice_points_against_naive_oracle():
    rng = random.Random(99)
    polys = [SQUARE, PD, NABLA_PRIME, colon(PD, NABLA_PRIME)]
    polys += [random_polygon(rng) for _ in range(60)]
    for p in polys:
        if p.is_empty:
            continue
        assert lattice_points(p) == naive_lattice_points(p)


def test_area_shoelace():
    assert PD.area() == 15
    assert SQUARE.area() == 1
    assert RatPolygon.from_vertices([(0, 0), (1, 0)]).area() == 0


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        RatPolygon.from_vertices([(0.5, 1), (1, 0), (0, 0)])
    with pytest.raises(TypeError):
        RatPolygon.from_halfplanes([((1, 0), 0.25), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)])
