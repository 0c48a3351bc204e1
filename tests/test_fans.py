import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricfg.fans import (
    Fan2,
    InvalidFan,
    NonPrimitiveDirection,
    ToricDivisor,
    ample_polytope,
    divisor_from_polytope,
    divisor_polytope,
    flag_data,
    is_ample,
    normal_fan,
)
from toricfg.geometry import DegeneratePolygon, RatPolygon, width

from paper import contains_polygon, glued_nef_polytope, newton_segment
from util import (
    load_example,
    p1p1_fan,
    random_ample_divisor,
    random_direction,
    random_smooth_fan,
)

SQ = load_example("slanted_quad")
EXT_FAN = load_example("extended_quad_fan", "fg-all").fan


def test_fan_validation():
    with pytest.raises(InvalidFan):
        Fan2.from_rays([(1, 0), (2, 0), (0, 1)])  # non-primitive
    with pytest.raises(InvalidFan):
        Fan2.from_rays([(1, 0), (0, 1)])  # not complete
    with pytest.raises(InvalidFan):
        Fan2.from_rays([(1, 0), (0, 1), (1, 1)])  # upper halfplane only
    fan = SQ.fan
    assert fan.is_smooth
    assert not EXT_FAN.is_smooth


def test_normal_fan_fixtures():
    square = load_example("unit_square").p_d
    assert set(normal_fan(square).rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    pd = RatPolygon.from_vertices([(0, 0), (-8, 0), (-2, -3), (0, -3)])
    assert set(normal_fan(pd).rays) == {(-1, 0), (0, -1), (1, 2), (0, 1)}
    nf7 = normal_fan(load_example("sevengon").p_d)
    assert set(nf7.rays) == {
        (-2, -3), (-3, -5), (1, 0), (3, 1), (3, 2), (-1, 3), (-1, 2),
    }
    with pytest.raises(DegeneratePolygon):
        normal_fan(RatPolygon.from_vertices([(0, 0), (1, 1)]))


def test_divisor_polytope_fixtures():
    d = SQ.divisor
    assert set(divisor_polytope(d).vertices) == {(0, 0), (-8, 0), (-2, -3), (0, -3)}
    fan = SQ.fan
    cprime = ToricDivisor.make(fan, {(1, 2): 7, (0, 1): 2})
    assert set(divisor_polytope(cprime).vertices) == {
        (0, 0), (-7, 0), (-3, -2), (0, -2),
    }
    zero = ToricDivisor.make(fan, {})
    assert divisor_polytope(zero).vertices == ((0, 0),)
    # on a complete fan the region is always bounded; a non-nef divisor
    # shows up as a shrunken or empty polytope, never an unbounded one
    assert divisor_polytope(ToricDivisor.make(fan, {(1, 2): -1})).is_empty
    assert not is_ample(ToricDivisor.make(fan, {(1, 2): -1}))


PRIMITIVE_7 = [(x, y) for x in range(-7, 8) for y in range(-7, 8) if gcd(x, y) == 1]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_every_divisor_of_a_complete_fan_has_a_bounded_polytope(seed):
    # the rays of a complete fan, smooth or not, leave no gap of pi, so
    # P_D is a polygon (possibly degenerate or empty) for any coefficients:
    # integers or p/q with q <= 4, from -3 to 9; a quarter of the fans are
    # smooth, the others random primitive rays with coordinates up to 7
    rng = random.Random(seed)
    if rng.random() < 0.25:
        rays = list(random_smooth_fan(rng).rays)
    else:
        rays = rng.sample(PRIMITIVE_7, rng.randint(3, 7))
    coeffs = [F(rng.randint(-3 * q, 9 * q), q) for q in rng.choices((1, 1, 2, 3, 4), k=len(rays))]
    try:
        fan = Fan2.from_rays(rays)
    except InvalidFan:
        return
    d = ToricDivisor.make(fan, dict(zip(rays, coeffs)))
    p = divisor_polytope(d)
    ample = ample_polytope(d)
    assert ample is None or (ample.dim == 2 and ample == p)


def test_is_ample_fixtures():
    assert is_ample(SQ.divisor)
    fan2 = EXT_FAN
    d_prime = ToricDivisor.make(fan2, {(1, 2): 13, (0, 1): 6, (1, 0): 5, (-1, 1): 6})
    assert not is_ample(d_prime)
    adjusted = ToricDivisor.make(
        fan2, {(1, 2): 13, (0, 1): 6, (1, 0): 5, (-1, 1): F(11, 2)}
    )
    assert is_ample(adjusted)
    # P_D is the segment [-1, 1] x {0}: it lies on the line of every ray,
    # but no ray supports an edge of positive length
    segment = ToricDivisor.make(p1p1_fan(), {(1, 0): 1, (-1, 0): 1})
    assert divisor_polytope(segment).dim == 1 and not is_ample(segment)


def test_flag_data_running_example():
    fd = flag_data(SQ.fan, (-2, 3))
    assert fd.m == (-3, -2)
    table = dict(zip(SQ.fan.rays, fd.cprime_coeffs))
    assert table == {(1, 2): 7, (0, 1): 2, (-1, 0): 0, (0, -1): 0}
    assert set(fd.nabla_prime.vertices) == {(0, 0), (-7, 0), (-3, -2), (0, -2)}
    assert contains_polygon(fd.nabla_prime, newton_segment(fd))


def test_flag_data_extended_fan():
    fan2 = EXT_FAN
    fd = flag_data(fan2, (-2, 3))
    table = dict(zip(fan2.rays, fd.cprime_coeffs))
    assert table == {
        (1, 2): 7, (0, 1): 2, (1, 0): 3, (-1, 0): 0, (0, -1): 0, (-1, 1): 0,
    }
    assert set(fd.nabla_prime.vertices) == {(0, 0), (-3, 0), (-3, -2), (-2, -2)}


def test_flag_data_p1p1():
    fd = flag_data(p1p1_fan(), (1, 0))
    assert fd.m == (0, 1)
    assert fd.nabla_prime == newton_segment(fd)
    assert set(fd.nabla_prime.vertices) == {(0, 0), (0, 1)}
    with pytest.raises(NonPrimitiveDirection):
        flag_data(p1p1_fan(), (2, 4))


def test_cprime_nonnegative_and_zero_on_direction():
    rng = random.Random(7)
    for _ in range(50):
        fan = random_smooth_fan(rng)
        v = random_direction(rng)
        fd = flag_data(fan, v)
        assert all(c >= 0 for c in fd.cprime_coeffs)
        for r, c in zip(fan.rays, fd.cprime_coeffs):
            if r in (v, (-v[0], -v[1])):
                assert c == 0


def test_nabla_prime_supports_match_nabla():
    # smallest polytope containing nabla with the fan refining its normal
    # fan: every fan halfplane supports both at the same offset
    rng = random.Random(8)
    for _ in range(40):
        fan = random_smooth_fan(rng)
        v = random_direction(rng)
        fd = flag_data(fan, v)
        nabla = newton_segment(fd)
        for r in fan.rays:
            assert fd.nabla_prime.support_min(r) == nabla.support_min(r)


def test_glued_nef_polytope_fixture():
    fan = SQ.fan
    fd = flag_data(fan, (-2, 3))
    pd = divisor_polytope(SQ.divisor)
    assert glued_nef_polytope(pd, fd) == fd.nabla_prime


def test_glued_nef_polytope_degenerate_square():
    fd = flag_data(p1p1_fan(), (1, 0))
    assert glued_nef_polytope(load_example("unit_square").p_d, fd) == newton_segment(fd)


def test_glued_equals_halfplane_description_randomized():
    rng = random.Random(20240812)
    for _ in range(80):
        fan = random_smooth_fan(rng)
        v = random_direction(rng)
        d = random_ample_divisor(rng, fan)
        fd = flag_data(fan, v)
        assert glued_nef_polytope(divisor_polytope(d), fd) == fd.nabla_prime


def test_normal_fan_round_trip():
    rng = random.Random(13)
    for _ in range(40):
        fan = random_smooth_fan(rng)
        d = random_ample_divisor(rng, fan)
        assert normal_fan(divisor_polytope(d)) == fan


def test_divisor_from_polytope_round_trip():
    p = load_example("sevengon").p_d
    d = divisor_from_polytope(p)
    assert divisor_polytope(d) == p
    assert is_ample(d)


def test_width_degree_inputs():
    fan = SQ.fan
    fd = flag_data(fan, (-2, 3))
    pd = divisor_polytope(SQ.divisor)
    assert width(pd, fd.v) == 25
    assert width(fd.nabla_prime, fd.v) == 20


def test_normal_fan_of_non_ample_divisor_is_subfan():
    # rays whose constraint carries no edge drop out of the normal fan
    fan2 = EXT_FAN
    d_prime = ToricDivisor.make(fan2, {(1, 2): 13, (0, 1): 6, (1, 0): 5, (-1, 1): 6})
    sub = normal_fan(divisor_polytope(d_prime))
    assert set(sub.rays) == set(fan2.rays) - {(-1, 1)}


def test_float_coefficients_rejected():
    banned = "floating point is banned here; use int or Fraction"
    with pytest.raises(TypeError, match=banned):
        ToricDivisor.make(SQ.fan, {(1, 2): 5.5})
    with pytest.raises(TypeError, match=banned):
        ToricDivisor.make(SQ.fan, [0, 0, 8.0, 3])
    with pytest.raises(ValueError, match="ray count"):  # the length is checked first
        ToricDivisor.make(SQ.fan, [0, 8.0, 3])
    from fractions import Fraction

    ToricDivisor.make(SQ.fan, {(1, 2): Fraction(11, 2)})  # fine


def test_integral_coefficients_are_stored_as_ints():
    fan = p1p1_fan()
    d = ToricDivisor.make(fan, [4, F(4, 2), F(7, 3), 1])
    assert [type(a) for a in d.coeffs] == [int, int, F, int]
    # the all-Fraction form that make stored before compares and hashes equal
    old = ToricDivisor(fan, tuple(F(a) for a in d.coeffs))
    assert d == old and hash(d) == hash(old)
    table = ToricDivisor.make(fan, {fan.rays[0]: F(6, 3), fan.rays[2]: F(7, 3)})
    assert [type(a) for a in table.coeffs] == [int, int, F, int]
    total = d + ToricDivisor.make(fan, [0, 0, F(2, 3), 0])
    assert total.coeffs == (4, 2, 3, 1) and all(type(a) is int for a in total.coeffs)
    assert divisor_polytope(d) == divisor_polytope(old)


def test_float_and_fractional_vectors_rejected():
    fan = SQ.fan
    with pytest.raises(TypeError):
        flag_data(fan, (1.9, 1))
    with pytest.raises(ValueError):
        flag_data(fan, (F(3, 2), 1))
    with pytest.raises(TypeError):
        Fan2.from_rays([(1, 0), (0, 1.0), (-1, -1)])
    assert flag_data(fan, (F(4, 2), 1)).v == (2, 1)
