import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from toricfg.cones import NotInInterior, cone
from toricfg.fans import ToricDivisor
from toricfg.oracles import brute_decompose, brute_e_bar, lift_search
from toricfg.semigroup import e_bar, make_context, newton_okounkov_body, q_hat
from toricfg.criterion import vertex_lifts

from paper import vanishing_orders
from util import (
    interior_point,
    load_example,
    projection_lift_search,
    random_ample_divisor,
    random_cone,
    random_direction,
    random_smooth_fan,
)

CTX = load_example("slanted_quad").context


def test_vanishing_orders_fixtures():
    assert vanishing_orders([0], 1) == {0}
    assert vanishing_orders([0, 2], 1) == {0, 1}
    assert vanishing_orders([-3, 0, 5], 2) == {0, 1, 2}


def test_vanishing_orders_rejects_floats():
    # 0.1 would otherwise be taken as 3602879701896397/2**55
    with pytest.raises(TypeError):
        vanishing_orders([0, 1, 2], 0.1)
    assert vanishing_orders([0, 1, 2], F(1, 10)) == {0, 1, 2}


def test_vanishing_orders_always_full_range():
    rng = random.Random(20240816)
    for _ in range(200):
        size = rng.randint(1, 8)
        support = rng.sample(range(-10, 11), size)
        c = rng.choice([1, 2, -1, F(3, 2)])
        assert vanishing_orders(support, c) == set(range(size))


def test_vanishing_orders_independent_of_evaluation_point():
    rng = random.Random(59)
    for _ in range(25):
        size = rng.randint(2, 6)
        support = rng.sample(range(-8, 9), size)
        results = {frozenset(vanishing_orders(support, c)) for c in (1, 2, -1, F(3, 2))}
        assert len(results) == 1


def test_brute_decompose_fixtures():
    assert brute_decompose((-2, 3), cone((-1, 0), (1, 2))) == ((-2, 1), (0, 2))
    assert brute_decompose((1, 1), cone((1, 0), (0, 1))) is None
    with pytest.raises(NotInInterior):
        brute_decompose((1, 0), cone((1, 0), (0, 1)))


def test_brute_decompose_parts_are_interior():
    rng = random.Random(61)
    for _ in range(100):
        c = random_cone(rng, bound=5)
        w = interior_point(rng, c, spread=3)
        out = brute_decompose(w, c)
        if out is None:
            continue
        wp, wq = out
        assert (wp[0] + wq[0], wp[1] + wq[1]) == w
        assert c.strictly_contains(wp) and c.strictly_contains(wq)


def test_brute_e_bar_matches_fixtures():
    assert brute_e_bar(CTX, 1, 1) == 2
    assert brute_e_bar(CTX, 3, 2) == 30
    assert brute_e_bar(CTX, 1, 10**6) == 0


def test_brute_e_bar_agrees_with_fast_path():
    rng = random.Random(20240817)
    for _ in range(100):
        l = rng.randint(1, 12)
        k = rng.randint(0, 12)
        assert brute_e_bar(CTX, l, k) == e_bar(CTX, l, k), (l, k)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([1, F(7, 3)]), st.integers(1, 3))
def test_e_bar_matches_brute_force_on_random_fans(seed, scale, l):
    # at most two subdivisions (3 to 6 rays) keep the oracle's bounding box small
    rng = random.Random(seed)
    fan = random_smooth_fan(rng, 2)
    d = random_ample_divisor(rng, fan)
    ctx = make_context(ToricDivisor(fan, tuple(scale * a for a in d.coeffs)),
                       random_direction(rng))
    for k in range(int(l * q_hat(ctx)) + 1):
        assert e_bar(ctx, l, k) == brute_e_bar(ctx, l, k), (l, k)


def test_lift_search_fixtures():
    assert lift_search(CTX, F(2, 3), 60) is None
    assert lift_search(CTX, 0, 60) is None
    assert lift_search(CTX, F(8, 7), 60) == 1
    ctx7 = load_example("sevengon").context
    for q, _ in newton_okounkov_body(ctx7).breakpoints:
        assert lift_search(ctx7, q, 60) is not None


def test_lift_search_agrees_with_vertex_lifts():
    for ctx in (CTX, load_example("sevengon").context):
        for q, _ in newton_okounkov_body(ctx).breakpoints:
            found = lift_search(ctx, q, 60)
            assert (found is not None) == vertex_lifts(ctx, q), (ctx, q)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([1, F(7, 3)]), st.integers(1, 8))
def test_lift_search_matches_projection_oracle_on_random_fans(seed, scale, cap):
    rng = random.Random(seed)
    fan = random_smooth_fan(rng)
    d = random_ample_divisor(rng, fan)
    ctx = make_context(ToricDivisor(fan, tuple(scale * a for a in d.coeffs)),
                       random_direction(rng))
    for q, _ in newton_okounkov_body(ctx).breakpoints:
        assert lift_search(ctx, q, cap) == projection_lift_search(ctx, q, cap), q


def test_lift_search_out_of_range():
    with pytest.raises(ValueError):
        lift_search(CTX, q_hat(CTX) + 1, 5)
