import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings

from toricfg.cones import cone, dual_cone
from toricfg.fans import ToricDivisor
from toricfg.geometry import (
    RatPolygon,
    dot,
    lattice_points,
    neg,
    width,
)
from toricfg.semigroup import (
    DegenerateTheta,
    NotAmple,
    d_of_q,
    e_bar,
    make_context,
    newton_okounkov_body,
    q_hat,
    semigroup_slice,
    tangent_cone,
    theta,
    theta_extremal,
)

import paper
from paper import contains_polygon, cut_construction, d_bar, minkowski_sum, newton_segment, xi_interval
from util import (
    SEED,
    line_interval_chords,
    load_example,
    normal_cone,
    p1p1_fan,
    polygon_contains,
    random_ample_divisor,
    random_direction,
    random_smooth_fan,
    rational_pools,
    triple_meet_body,
)

CTX = load_example("slanted_quad").context


def test_context_requires_ample():
    fan = p1p1_fan()
    with pytest.raises(NotAmple):
        make_context(ToricDivisor.make(fan, {(1, 0): 1}), (1, 2))


def test_theta_fixtures():
    assert set(theta(CTX, 1, 1).vertices) == {(0, 0), (-1, 0), (0, F(-1, 2))}
    assert set(theta(CTX, 3, 2).vertices) == {(0, 0), (-10, 0), (0, -5)}
    assert theta(CTX, 1, 0) == CTX.p_d
    assert theta(CTX, 1, 10**6).is_empty
    assert not theta(CTX, 1, F(8, 7)).is_empty
    assert theta(CTX, 1, F(8, 7) + F(1, 1000)).is_empty


def test_theta_at_level_zero_is_empty_and_the_domain_is_checked():
    # (0*P_D : k*nabla') holds the u with u + k*nabla' inside the point 0,
    # none for k > 0 since nabla' has positive width along v; l, k < 0 and
    # l = k = 0 are refused, on every shipped input with a divisor
    contexts = [load_example(name).context for name in (
        "big_rational_zonotope", "rational_quad", "sevengon", "slanted_quad", "unit_square")]
    contexts.append(make_context(load_example("sym16gon", "scan").divisor, (3, 7)))
    for ctx in contexts:
        assert all(theta(ctx, 0, k).is_empty for k in (1, 2, 5))
        for l, k in ((0, 0), (-1, 2), (1, -5)):
            with pytest.raises(ValueError, match="need l, k >= 0"):
                theta(ctx, l, k)


DILATE_POOLS = rational_pools(4, 3), rational_pools(8, 3)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(SEED)
def test_theta_is_the_colon_of_the_dilates(seed):
    # theta cuts (l*P_D : k*nabla') out of the fan's halfplanes; the oracle
    # moves each halfplane of l*P_D in by the support of k*nabla'.  l - 1
    # and k are drawn as rationals(4, 3) and rationals(8, 3) draw them, and
    # a quarter of the directions have max-norm 1
    rng = random.Random(seed)
    fan = random_smooth_fan(rng)
    d = random_ample_divisor(rng, fan)
    scale = rng.choice([1, F(7, 3)])
    v = random_direction(rng, rng.choice((1, 6, 6, 6)))
    ctx = make_context(ToricDivisor(fan, tuple(scale * a for a in d.coeffs)), v)
    l, k = (abs(rng.choice(rng.choice(pools))) for pools in DILATE_POOLS)
    l += 1
    expect = paper.colon(ctx.p_d.dilate(l), ctx.flag.nabla_prime.dilate(k))
    assert theta(ctx, l, k) == expect


@settings(max_examples=40, derandomize=True, deadline=None)
@given(SEED)
def test_theta_reads_each_chamber_as_the_kernel_cuts_it(seed):
    # every cell up to l = 8, rational cells and every wall slope of a
    # smooth fan's context, with the divisor scaled by 1 or 7/3, against
    # the kernel on the same halfplanes; the kernel runs once per wall
    # cell and once per chamber, whose walls are read here off the
    # line-interval oracle of the chords
    rng = random.Random(seed)
    while True:
        fan = random_smooth_fan(rng)
        scale = rng.choice([1, F(7, 3)])
        d = ToricDivisor(fan, tuple(scale * a for a in random_ample_divisor(rng, fan).coeffs))
        ctx = make_context(d, random_direction(rng, rng.choice((1, 4, 8))))
        if ctx.q_hat * 8 <= 24:
            break
    qh = ctx.q_hat
    walls = sorted({F(0), *(length for _, length in line_interval_chords(ctx.p_d, ctx.flag.v))})
    cells = [(l, k) for l in range(1, 9) for k in range(int(l * qh) + 2)]
    cells += [(l, l * w) for w in walls for l in (1, 2, F(5, 3))]
    for _ in range(20):
        l = F(rng.randint(1, 40), rng.randint(1, 7))
        cells.append((l, l * qh * F(rng.randint(1, 60), 50)))
    kernel, calls = RatPolygon.from_halfplanes, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RatPolygon, "from_halfplanes", staticmethod(lambda hps: calls.append(hps) or kernel(hps)))
        for l, k in cells:
            hps = [(r, -l * a + k * c) for r, a, c in zip(fan.rays, d.coeffs, ctx.flag.cprime_coeffs)]
            assert theta(ctx, l, k) == kernel(hps), (d, ctx.flag.v, l, k)
    slopes = [F(k) / l for l, k in cells]
    on_wall = sum(q in walls or q > qh for q in slopes)
    chambers = {sum(w < q for w in walls) for q in slopes if q not in walls and q < qh}
    assert len(calls) == on_wall + len(chambers)


def test_e_bar_fixtures():
    assert e_bar(CTX, 1, 1) == 2
    assert e_bar(CTX, 3, 2) == 30
    assert e_bar(CTX, 1, 10**6) == 0
    assert {dot(u, CTX.flag.v) for u in lattice_points(theta(CTX, 1, 1))} == {0, 2}


def test_d_bar_fixtures():
    assert d_bar(CTX, 1, 1) == 5
    assert d_bar(CTX, 0, 0) == 0
    assert d_bar(CTX, 3, 2) == 35


def test_xi_interval_fixtures():
    assert xi_interval(CTX, 1, 1) == (-3, 2)
    assert xi_interval(CTX, 1, 0) == (-9, 16)
    # chain of inclusions at (1,1): projections sit inside xi
    lo, hi = xi_interval(CTX, 1, 1)
    values = {dot(u, CTX.flag.v) for u in lattice_points(theta(CTX, 1, 1))}
    t = theta(CTX, 1, 1)
    assert values <= set(range(-3, 3))
    assert lo <= t.support_min(CTX.flag.v) and t.support_max(CTX.flag.v) <= hi


def test_d_of_q_fixtures():
    assert d_of_q(CTX, 0) == 25
    assert d_of_q(CTX, 1) == F(7, 2)
    assert d_of_q(CTX, F(2, 3)) == F(35, 3)
    assert d_of_q(CTX, 10) is None


def test_q_hat_fixtures():
    assert q_hat(CTX) == F(8, 7)
    sq_ctx = load_example("unit_square").context
    assert q_hat(sq_ctx) == 1
    doubled = make_context(
        ToricDivisor.make(CTX.divisor.fan, {(1, 2): 16, (0, 1): 6}), (-2, 3)
    )
    assert q_hat(doubled) == 2 * q_hat(CTX)


def test_semigroup_slice_fixtures():
    s1 = semigroup_slice(CTX, 1)
    assert (1, 2) in s1.entries
    assert s1.entries[0] == (0, e_bar(CTX, 1, 0))
    assert (1, 1, 0) in list(s1.triples()) and (1, 1, 1) in list(s1.triples())
    s3 = semigroup_slice(CTX, 3)
    assert (2, 30) in s3.entries
    assert all(k <= 3 * q_hat(CTX) for k, _ in s3.entries)


def test_semigroup_slice_lists_sectionless_slopes():
    # rational coefficients: theta(1, 1) is non-empty without lattice points
    fan = CTX.divisor.fan
    d = ToricDivisor.make(fan, {(-1, 0): F(5, 2), (0, -1): F(7, 3)})
    ctx = make_context(d, (-2, 3))
    s1 = semigroup_slice(ctx, 1)
    assert s1.entries == ((0, 15), (1, 0))
    assert not theta(ctx, 1, 1).is_empty
    assert all(k == 0 for _, k, _ in s1.triples())


def test_tail_vanishes_beyond_q_hat():
    qh = q_hat(CTX)
    for l in (1, 2, 3, 5):
        kcut = int(l * qh) + 1
        for k in range(kcut, kcut + 4):
            assert e_bar(CTX, l, k) == 0


def test_cut_construction_fixture():
    cut = cut_construction(CTX, 1, 1)
    assert set(cut.box_max.vertices) == {(-1, 0), (-8, 0), (-4, -2)}
    assert set(cut.box_min.vertices) == {
        (0, F(-1, 2)), (0, -3), (-2, -3), (-3, F(-5, 2)),
    }
    assert cut.v_plus == (-1, 0)
    assert cut.v_minus == (0, F(-1, 2))
    assert cut.p_cut == minkowski_sum(theta(CTX, 1, 1), newton_segment(CTX.flag))
    # the sum with the full nef polytope is strictly smaller than P_D
    bigger = minkowski_sum(theta(CTX, 1, 1), CTX.flag.nabla_prime)
    assert contains_polygon(CTX.p_d, bigger) and bigger != CTX.p_d


def test_cut_construction_trivial_at_k_zero():
    cut = cut_construction(CTX, 1, 0)
    assert cut.p_cut == CTX.p_d


def test_cut_identity_randomized():
    rng = random.Random(20240814)
    checked = 0
    while checked < 60:
        fan = random_smooth_fan(rng)
        d = random_ample_divisor(rng, fan)
        v = random_direction(rng)
        ctx = make_context(d, v)
        qh = q_hat(ctx)
        l = rng.randint(1, 3)
        k = rng.randint(0, max(0, int(l * qh)))
        if theta(ctx, l, k).is_empty:
            continue
        cut_construction(ctx, l, k)  # raises if the cut identity fails
        checked += 1


def test_cut_identity_failure_raises(monkeypatch):
    # a Minkowski sum that misses the middle piece must raise, also under -O
    wrong = RatPolygon.from_vertices([(0, 0), (1, 0), (0, 1)])
    monkeypatch.setattr(paper, "minkowski_sum", lambda p, q: wrong)
    with pytest.raises(ArithmeticError, match="cut identity failed"):
        cut_construction(CTX, 1, 1)


def test_theta_extremal_fixture():
    # the tangent cones at the v-extremal vertices (0, -5) and (-10, 0)
    t, v = theta(CTX, 3, 2), CTX.flag.v
    assert t.face(v) == [(0, -5)] and t.face(neg(v)) == [(-10, 0)]
    cone_minus, cone_plus = theta_extremal(CTX, 3, 2)
    assert cone_minus == cone((0, 1), (-2, 1))
    assert cone_plus == cone((1, 0), (2, -1))
    assert dual_cone(cone_minus) == cone((-1, 0), (1, 2))


def test_theta_extremal_degenerate_point():
    with pytest.raises(DegenerateTheta):
        theta_extremal(CTX, 1, F(8, 7))


def test_newton_okounkov_body_fixture():
    body = newton_okounkov_body(CTX)
    assert set(body.polygon.vertices) == {(0, 0), (0, 25), (F(2, 3), F(35, 3)), (F(8, 7), 0)}
    assert body.breakpoints == ((0, 25), (F(2, 3), F(35, 3)), (F(8, 7), 0))


SHIFT_POOLS = rational_pools(3, 5)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(SEED)
def test_no_body_matches_triple_meet_oracle(seed):
    # the chord lengths at P_D's vertex levels give the same body as every
    # slope where three constraints meet; a rational divisor is an
    # integral one times 7/3 or translated by a shift drawn as
    # rationals(3, 5) draws it
    rng = random.Random(seed)
    fan = random_smooth_fan(rng)
    d = random_ample_divisor(rng, fan)
    kind = rng.choice(["integral", "7/3", "rational"])
    # a quarter of the directions have max-norm 1, along an axis or diagonal
    v = random_direction(rng, rng.choice((1, 6, 6, 6)))
    shift = tuple(rng.choice(rng.choice(SHIFT_POOLS)) for _ in range(2))
    scale, m = (F(7, 3), (0, 0)) if kind == "7/3" else (1, shift if kind == "rational" else (0, 0))
    coeffs = tuple(scale * a + dot(m, r) for a, r in zip(d.coeffs, fan.rays))
    ctx = make_context(ToricDivisor(fan, coeffs), v)
    body = newton_okounkov_body(ctx)
    oracle = triple_meet_body(ctx)
    assert body.polygon.vertices == oracle.polygon.vertices and body.breakpoints == oracle.breakpoints


def test_newton_okounkov_square():
    ctx = load_example("unit_square").context
    body = newton_okounkov_body(ctx)
    assert d_of_q(ctx, 0) == 1 and q_hat(ctx) == 1
    assert set(body.polygon.vertices) == {(0, 0), (0, 1), (1, 1), (1, 0)}
    # sampling oracle: every sampled graph point is in the body
    for i in range(11):
        q = F(i, 10)
        assert polygon_contains(body.polygon, (q, d_of_q(ctx, q)))


def test_no_body_area_identity():
    rng = random.Random(31)
    fan2 = load_example("extended_quad_fan", "fg-all").fan
    adjusted = ToricDivisor.make(fan2, {(1, 2): 13, (0, 1): 6, (1, 0): 5, (-1, 1): F(11, 2)})
    ctxs = [CTX, load_example("sevengon").context, make_context(adjusted, (-2, 3))]
    tries = 0
    while len(ctxs) < 8 and tries < 100:
        tries += 1
        fan = random_smooth_fan(rng)
        ctxs.append(make_context(random_ample_divisor(rng, fan), random_direction(rng)))
    for ctx in ctxs:
        body = newton_okounkov_body(ctx)
        assert body.polygon.area() == ctx.p_d.area()


def test_no_body_sampling_oracle_randomized():
    rng = random.Random(37)
    for _ in range(6):
        fan = random_smooth_fan(rng)
        ctx = make_context(random_ample_divisor(rng, fan), random_direction(rng))
        body = newton_okounkov_body(ctx)
        qh = q_hat(ctx)
        for i in range(13):
            q = qh * F(i, 12)
            d = d_of_q(ctx, q)
            assert polygon_contains(body.polygon, (q, d))
            # and nothing above the graph belongs to the body
            assert not polygon_contains(body.polygon, (q, d + 1))


def test_sandwich_inequality():
    # e_bar - 1 <= d <= d_bar on fixtures and random data
    for (l, k) in [(1, 1), (3, 2), (2, 1), (4, 3)]:
        d = width(theta(CTX, l, k), CTX.flag.v)
        assert e_bar(CTX, l, k) - 1 <= d <= d_bar(CTX, l, k)


def test_homogeneity_and_concavity():
    for lam in (2, 3, 4):
        assert d_of_q(CTX, F(1, 2)) * lam == width(
            theta(CTX, lam, lam * F(1, 2)), CTX.flag.v
        )
    qs = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(8, 7)]
    for a, b, c in zip(qs, qs[1:], qs[2:]):
        lam = (c - b) / (c - a)
        mid = d_of_q(CTX, b)
        assert mid >= lam * d_of_q(CTX, a) + (1 - lam) * d_of_q(CTX, c)
    # the roof is also nonincreasing: bigger segments are harder to fit
    assert all(d_of_q(CTX, a) >= d_of_q(CTX, b) for a, b in zip(qs, qs[1:]))


def test_e_bar_asymptotics_improve():
    q = F(1, 2)
    d = d_of_q(CTX, q)

    def best(cap):
        vals = [
            F(e_bar(CTX, lam, int(lam * q)) - 1, lam)
            for lam in range(1, cap + 1)
            if (lam * q).denominator == 1
        ]
        return max(vals)

    b10, b40 = best(10), best(40)
    assert b10 <= b40 <= d
    assert d - b40 < F(1, 2)


def test_theta_extremal_edge_faces_are_halfplanes():
    sq_ctx = load_example("unit_square").context
    cone_minus, cone_plus = theta_extremal(sq_ctx, 1, 0)
    assert cone_minus.kind == "halfplane"
    assert cone_plus.kind == "halfplane"
    # at the top slope the square's colon polytope is a segment transverse
    # to the level lines, whose endpoint tangent cones are rays
    top_minus, top_plus = theta_extremal(sq_ctx, 1, 1)
    assert top_minus.kind == "ray"
    assert top_plus.kind == "ray"


def random_tangent_case(rng):
    """A segment or a polygon on up to 6 points with coordinates up to 6,
    scaled by 1 or 7/3, and a primitive direction of positive width."""
    while True:
        points = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.choice((2, 6)))]
        p = RatPolygon.from_vertices(points).dilate(rng.choice((1, F(7, 3))))
        v = random_direction(rng)
        if p.dim > 0 and width(p, v) > 0:
            return p, v


@settings(max_examples=150, derandomize=True)
@given(SEED)
@example((RatPolygon.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)]), (1, 0)))  # the closing edge
@example((RatPolygon.from_vertices([(0, 0), (2, 1)]), (1, 0)))  # the ends of a segment
@example((RatPolygon.from_vertices([(0, 0), (3, 0), (0, 3)]), (1, 1)))  # an edge, then a vertex
def test_tangent_cone_is_dual_to_normal_cone(case):
    p, v = random_tangent_case(random.Random(case)) if isinstance(case, int) else case
    for w in (v, neg(v)):
        assert tangent_cone(p, w) == dual_cone(normal_cone(p, w)), (p, w)


def _vertex_lifts(ctx, x):
    from toricfg.criterion import vertex_lifts

    return vertex_lifts(ctx, x)


def _lift_search(ctx, x):
    from toricfg.oracles import lift_search

    return lift_search(ctx, x, 2)


@pytest.mark.parametrize("call", [
    lambda ctx, x: theta(ctx, x, 0),
    lambda ctx, x: theta(ctx, 1, x),
    lambda ctx, x: d_of_q(ctx, x),
    lambda ctx, x: d_bar(ctx, x, 0),
    lambda ctx, x: xi_interval(ctx, 1, x),
    lambda ctx, x: cut_construction(ctx, x, 0),
    _vertex_lifts,
    _lift_search,
    lambda ctx, x: ctx.p_d.dilate(x),
], ids=["theta_l", "theta_k", "d_of_q", "d_bar", "xi_interval", "cut_construction",
        "vertex_lifts", "lift_search", "dilate"])
def test_float_arguments_are_rejected(call):
    # 0.1 is 3602879701896397/2**55, not 1/10; the exact value still runs
    with pytest.raises(TypeError, match="floating point"):
        call(CTX, 0.1)
    call(CTX, F(1, 10))
