"""Acceptance gate: every criterion below runs at zero tolerance (all
arithmetic exact) and prints its own pass line (visible with pytest -s).
"""

import random
from fractions import Fraction as F

from toricfg.cones import cone, is_strongly_decomposable
from toricfg.criterion import (
    construct_bad_divisor,
    fg_for_all_divisors,
    is_finitely_generated,
    lifting_table,
    max_segment,
    scan_directions,
    vertex_lifts,
)
from toricfg.fans import (
    ToricDivisor,
    divisor_from_polytope,
    divisor_polytope,
    flag_data,
    is_ample,
    normal_fan,
)
from toricfg.geometry import ChordWalk, width
from toricfg.oracles import brute_decompose, brute_e_bar, lift_search
from toricfg.semigroup import (
    d_of_q,
    e_bar,
    make_context,
    newton_okounkov_body,
    q_hat,
    theta,
)

from paper import (
    cut_construction,
    d_bar,
    glued_nef_polytope,
    minkowski_sum,
    newton_segment,
    vanishing_orders,
    xi_interval,
)
from util import (
    interior_point,
    load_example,
    load_script,
    random_ample_divisor,
    random_cone,
    random_direction,
    random_smooth_fan,
)

CTX = load_example("slanted_quad").context
V = (-2, 3)


def _ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_running_example_exact_values():
    fan = CTX.divisor.fan
    fd = flag_data(fan, V)
    assert dict(zip(fan.rays, fd.cprime_coeffs)) == {
        (1, 2): 7, (0, 1): 2, (-1, 0): 0, (0, -1): 0,
    }
    assert set(fd.nabla_prime.vertices) == {(0, 0), (-7, 0), (-3, -2), (0, -2)}
    assert set(theta(CTX, 1, 1).vertices) == {(0, 0), (-1, 0), (0, F(-1, 2))}
    projection = lambda p: (p.support_min(V), p.support_max(V))
    assert projection(CTX.p_d) == (-9, 16)
    assert projection(fd.nabla_prime) == (-6, 14)
    assert projection(theta(CTX, 1, 1)) == (F(-3, 2), 2)
    assert xi_interval(CTX, 1, 1) == (-3, 2)
    assert d_bar(CTX, 1, 1) == 5
    assert e_bar(CTX, 1, 1) == 2
    assert width(theta(CTX, 1, 1), V) == F(7, 2)
    _ok(1, "running example: curve coefficients, nef polytope, colon polytope, "
           "projections, degree 5, section count 2, width 7/2, all exact")


def test_criterion_2_newton_okounkov_body_exact():
    body = newton_okounkov_body(CTX)
    assert set(body.polygon.vertices) == {
        (0, 0), (0, 25), (F(2, 3), F(35, 3)), (F(8, 7), 0),
    }
    _ok(2, "Newton-Okounkov body equals conv((0,0),(0,25),(2/3,35/3),(8/7,0))")


def test_criterion_3_non_finite_generation_witness():
    assert e_bar(CTX, 3, 2) == 30
    assert width(theta(CTX, 3, 2), V) == 35
    assert vertex_lifts(CTX, F(2, 3)) is False
    assert lift_search(CTX, F(2, 3), 60) is None
    verdict = is_finitely_generated(CTX)
    assert verdict.finitely_generated is False
    assert verdict.witness_plus == ((-2, 1), (0, 2))
    _ok(3, "section count 30 vs width 35 at (3,2); breakpoint 2/3 never lifts "
           "(no lambda up to 60); verdict not-fg with witness (-2,3)=(-2,1)+(0,2)")


def test_criterion_4_sevengon_finitely_generated():
    p = load_example("sevengon").p_d
    seg = max_segment(ChordWalk(p, (0, 1)))
    assert {seg.v1, seg.v2} == {(F(8, 3), 3), (9, 3)}
    sp, sm = seg.sigma_plus, seg.sigma_minus
    assert sp == cone((3, 2), (-1, 2))
    assert sm == cone((-2, -3), (3, 2))
    ctx = load_example("sevengon").context
    assert is_finitely_generated(ctx).finitely_generated is True
    for q, _ in newton_okounkov_body(ctx).breakpoints:
        lam = lift_search(ctx, q, 60)
        assert lam is not None and lam <= 60
    _ok(4, "7-gon: maximal segment conv((8/3,3),(9,3)), side cones "
           "cone((3,2),(-1,2)) and cone((-2,-3),(3,2)), fg verdict, and every "
           "body vertex lifts with lambda <= 60")


def test_criterion_5_bad_divisor_pipeline():
    fan2 = load_example("extended_quad_fan", "fg-all").fan
    fd = flag_data(fan2, V)
    assert dict(zip(fan2.rays, fd.cprime_coeffs)) == {
        (1, 2): 7, (0, 1): 2, (1, 0): 3, (-1, 0): 0, (0, -1): 0, (-1, 1): 0,
    }
    assert set(fd.nabla_prime.vertices) == {(0, 0), (-3, 0), (-3, -2), (-2, -2)}
    sigma = cone((-1, 0), (1, 2))
    d_theta = ToricDivisor.make(fan2, {(1, 2): 6, (0, 1): 4, (1, 0): 2, (-1, 1): 6})
    out = construct_bad_divisor(fan2, sigma, V, d_theta=d_theta)
    assert dict(zip(fan2.rays, out.d_prime.coeffs)) == {
        (1, 2): 13, (0, 1): 6, (1, 0): 5, (-1, 1): 6, (-1, 0): 0, (0, -1): 0,
    }
    assert not is_ample(out.d_prime)
    p_prime = divisor_polytope(out.d_prime)
    assert dict(p_prime.halfplanes).get((-1, 1)) is None  # face degenerate
    assert set(divisor_polytope(out.divisor).vertices) == {
        (0, 0), (-5, 0), (-5, -4), (-1, -6), (F(-1, 2), -6), (0, F(-11, 2)),
    }
    assert is_ample(out.divisor)
    verdict = is_finitely_generated(make_context(out.divisor, V))
    assert verdict.finitely_generated is False
    _ok(5, "extended-fan pipeline: curve coefficients (7,2,3), nef polytope, "
           "intermediate non-ample divisor (13,6,5,6), and the ample 11/2 "
           "adjustment failing finite generation")


def test_criterion_6a_decomposability_equivalence():
    rng = random.Random(1006001)
    for _ in range(200):
        c = random_cone(rng, bound=5)
        w = interior_point(rng, c, spread=3)
        dec = is_strongly_decomposable(w, c)
        assert dec == (brute_decompose(w, c) is not None)
    _ok("6a", "Hilbert-basis decomposability equals brute-force search on "
              "200 random (cone, interior point) instances")


def test_criterion_6b_sandwich():
    rng = random.Random(1006002)
    checked = 0
    while checked < 200:
        fan = random_smooth_fan(rng, max_subdivisions=2)
        ctx = make_context(random_ample_divisor(rng, fan), random_direction(rng))
        for _ in range(5):
            l = rng.randint(1, 3)
            k = rng.randint(0, 4)
            d = width(theta(ctx, l, k), ctx.flag.v)
            e = e_bar(ctx, l, k)
            if e == 0:
                assert theta(ctx, l, k).dim < 2 or d >= 0
            else:
                assert e - 1 <= d <= d_bar(ctx, l, k)
            checked += 1
    _ok("6b", "sandwich e_bar - 1 <= d <= d_bar on 200 random (divisor, "
              "direction, l, k) instances")


def test_criterion_6c_homogeneity_and_concavity():
    rng = random.Random(1006003)
    checked = 0
    while checked < 200:
        fan = random_smooth_fan(rng, max_subdivisions=2)
        ctx = make_context(random_ample_divisor(rng, fan), random_direction(rng))
        qh = q_hat(ctx)
        for _ in range(4):
            q = qh * F(rng.randint(0, 6), 6)
            lam = rng.randint(2, 4)
            assert width(theta(ctx, lam, lam * q), ctx.flag.v) == lam * d_of_q(ctx, q)
            checked += 1
        qs = sorted({qh * F(i, 4) for i in range(5)})
        for a, b, c in zip(qs, qs[1:], qs[2:]):
            t = (c - b) / (c - a)
            assert d_of_q(ctx, b) >= t * d_of_q(ctx, a) + (1 - t) * d_of_q(ctx, c)
            checked += 1
    _ok("6c", "width homogeneity d(lam*l, lam*k) = lam*d(l,k) and exact "
              "concavity of d(q) on 200 random instances")


def test_criterion_6d_cut_identity():
    rng = random.Random(1006004)
    checked = 0
    while checked < 200:
        fan = random_smooth_fan(rng, max_subdivisions=2)
        ctx = make_context(random_ample_divisor(rng, fan), random_direction(rng))
        qh = q_hat(ctx)
        l = rng.randint(1, 3)
        k = rng.randint(0, max(0, int(l * qh)))
        if theta(ctx, l, k).is_empty:
            continue
        cut = cut_construction(ctx, l, k)  # asserts the identity internally
        scaled = newton_segment(ctx.flag).dilate(k)
        expect = minkowski_sum(theta(ctx, l, k), scaled) if k else theta(ctx, l, k)
        assert cut.p_cut == expect
        checked += 1
    _ok("6d", "cut identity theta + k*nabla = middle piece of l*P_D on 200 "
              "random instances")


def test_criterion_6e_vanishing_orders():
    rng = random.Random(1006005)
    for _ in range(200):
        size = rng.randint(1, 8)
        support = rng.sample(range(-12, 13), size)
        c = rng.choice([1, 2, -1, F(3, 2)])
        assert vanishing_orders(support, c) == set(range(size))
    _ok("6e", "achieved vanishing orders are exactly {0..e-1} for 200 random "
              "supports of size <= 8 at c in {1, 2, -1, 3/2}")


def test_criterion_6f_glued_nef_polytope():
    rng = random.Random(1006006)
    for _ in range(200):
        fan = random_smooth_fan(rng, max_subdivisions=3)
        v = random_direction(rng)
        fd = flag_data(fan, v)
        d = random_ample_divisor(rng, fan)
        assert glued_nef_polytope(divisor_polytope(d), fd) == fd.nabla_prime
    _ok("6f", "glued nef polytope equals the halfplane description on 200 "
              "random (fan, divisor, direction) instances")


def test_criterion_6g_criterion_equals_lifting():
    rng = random.Random(1006007)
    fans = [random_smooth_fan(rng) for _ in range(10)]
    count = 0
    for fan in fans:
        for _ in range(5):
            ctx = make_context(random_ample_divisor(rng, fan), random_direction(rng))
            verdict = is_finitely_generated(ctx)
            lifts = all(ok for _, _, ok in lifting_table(ctx))
            assert verdict.finitely_generated == lifts
            count += 1
    assert count == 50
    _ok("6g", "finite-generation criterion agrees with all-vertices-lift on "
              "50 random ample divisors over 10 random smooth fans")


def test_criterion_7_sym16gon_no_good_direction():
    p = load_example("sym16gon", "scan").p_d
    assert p == load_script("search_sym16gon.py").zonotope((1, 1, 1, 3))
    assert all((-x, -y) in set(p.vertices) for x, y in p.vertices)
    fan = normal_fan(p)
    assert len(fan.rays) == 16 and fan.is_smooth
    results = scan_directions(divisor_from_polytope(p), 20)
    assert len(results) >= 200
    assert all(not verdict.finitely_generated for _, verdict in results)
    assert all(not fg_for_all_divisors(fan, v).holds for v, _ in results)
    _ok(7, f"centrally symmetric 16-gon: all {len(results)} primitive "
           "directions up to bound 20 fail finite generation, and the "
           "all-divisors criterion fails for each")


def test_criterion_8_oracle_agreement():
    for (l, k) in [(1, 1), (3, 2), (1, 0), (2, 2), (1, 7), (2, 40)]:
        assert brute_e_bar(CTX, l, k) == e_bar(CTX, l, k)
    ctx7 = load_example("sevengon").context
    for (l, k) in [(1, 0), (1, 3), (2, 5)]:
        assert brute_e_bar(ctx7, l, k) == e_bar(ctx7, l, k)
    rng = random.Random(1006008)
    for _ in range(100):
        l = rng.randint(1, 12)
        k = rng.randint(0, 12)
        assert brute_e_bar(CTX, l, k) == e_bar(CTX, l, k), (l, k)
    _ok(8, "independent section recount equals the fast count on all "
           "fixtures and 100 random (l <= 12, k <= 12) pairs")
