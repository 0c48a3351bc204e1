import random
import time
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from toricfg.cones import cone, exists_pairing_one, halfplane, ray
from toricfg.criterion import (
    ConstructionFailed,
    _check_tangent,
    _lower_coefficient,
    _relaxation,
    _synthesize_d_theta,
    construct_bad_divisor,
    failing_cones,
    fg_for_all_divisors,
    is_finitely_generated,
    lifting_table,
    max_segment,
    scan_directions,
    vertex_lifts,
)
from toricfg.fans import (
    Fan2,
    InvalidFan,
    NonPrimitiveDirection,
    ToricDivisor,
    divisor_from_polytope,
    divisor_polytope,
    flag_data,
)
from toricfg.geometry import (
    ChordWalk,
    RatPolygon,
    UnboundedRegion,
    det,
    neg,
    rot90,
)
from toricfg.oracles import lift_search
from toricfg.semigroup import e_bar, make_context, newton_okounkov_body

from paper import colon, contains_polygon, minkowski_sum
from util import (
    SEED,
    cone_contains,
    helly_q_hat,
    line_interval_max_chord,
    load_example,
    one_sided_verdict,
    p1p1_fan,
    p2_fan,
    random_ample_divisor,
    random_direction,
    random_smooth_fan,
    random_unimodular,
    rational_pools,
    search_halfplane_divisor,
    search_lowered_coefficients,
    search_relaxation,
    vertex_level_max_segment,
)

CTX = load_example("slanted_quad").context
SEVENGON = load_example("sevengon")
EXT_FAN = load_example("extended_quad_fan", "fg-all").fan


def test_max_segment_sevengon():
    seg = max_segment(ChordWalk(SEVENGON.p_d, (0, 1)))
    assert seg.level == 3
    assert {seg.v1, seg.v2} == {(F(8, 3), 3), (9, 3)}
    assert seg.q_hat == F(19, 3)


def test_max_segment_square_midpoint_tiebreak():
    seg = max_segment(ChordWalk(load_example("unit_square").p_d, (1, 0)))
    assert seg.level == F(1, 2)
    assert seg.q_hat == 1
    assert {seg.v1, seg.v2} == {(F(1, 2), 0), (F(1, 2), 1)}


def test_max_segment_running_example_matches_q_hat():
    seg = max_segment(ChordWalk(CTX.p_d, CTX.flag.v))
    assert seg.q_hat == F(8, 7)


def test_sigma_cones_sevengon():
    seg = max_segment(ChordWalk(SEVENGON.p_d, (0, 1)))
    sp, sm = seg.sigma_plus, seg.sigma_minus
    assert sp == cone((3, 2), (-1, 2))
    assert sm == cone((-2, -3), (3, 2))
    assert sp.strictly_contains((0, 1))
    assert sm.strictly_contains((0, -1))


def test_sigma_cones_square_halfplanes():
    seg = max_segment(ChordWalk(load_example("unit_square").p_d, (1, 0)))
    sp, sm = seg.sigma_plus, seg.sigma_minus
    assert sp.kind == "halfplane" and sm.kind == "halfplane"
    assert sp == halfplane((0, 1), (1, 0))
    assert sm == halfplane((0, 1), (-1, 0))


def test_sigma_cones_contain_directions():
    rng = random.Random(41)
    for _ in range(60):
        fan = random_smooth_fan(rng)
        d = random_ample_divisor(rng, fan)
        v = random_direction(rng)
        ctx = make_context(d, v)
        seg = max_segment(ChordWalk(ctx.p_d, v))
        sp, sm = seg.sigma_plus, seg.sigma_minus
        if sp is None or sm is None:
            continue
        assert sp.strictly_contains(v)
        assert sm.strictly_contains(neg(v))


def test_one_sided_segment_falls_back_with_no_sigmas():
    # on the triangle conv(0, e1, e2) at v = (0, 1) the longest chord is
    # the bottom edge: nothing lies below it, so sigma_plus is None while
    # the edges above span sigma_minus, and the verdict lifts breakpoints
    ctx = make_context(ToricDivisor.make(p2_fan(), (0, 0, 1)), (0, 1))
    verdict = is_finitely_generated(ctx)
    assert verdict.segment.sigma_plus is None
    assert verdict.segment.sigma_minus == cone((1, 0), (-1, -1))
    assert verdict.degenerate_side and verdict.lifting
    assert verdict.sigma_plus is None and verdict.sigma_minus is None


def test_fg_verdicts_fixtures():
    assert is_finitely_generated(SEVENGON.context).finitely_generated
    verdict = is_finitely_generated(CTX)
    assert not verdict.finitely_generated
    assert verdict.witness_plus == ((-2, 1), (0, 2))
    assert verdict.sigma_plus == cone((-1, 0), (1, 2))


def test_fg_extended_fan_adjusted_divisor():
    fan2 = EXT_FAN
    adjusted = ToricDivisor.make(
        fan2, {(1, 2): 13, (0, 1): 6, (1, 0): 5, (-1, 1): F(11, 2)}
    )
    verdict = is_finitely_generated(make_context(adjusted, (-2, 3)))
    assert not verdict.finitely_generated


def test_vertex_lifts_fixtures():
    assert vertex_lifts(CTX, F(2, 3)) is False
    assert vertex_lifts(CTX, 0) is False  # top breakpoint of this body never lifts
    assert vertex_lifts(CTX, F(8, 7)) is True
    ctx7 = SEVENGON.context
    for q, _ in newton_okounkov_body(ctx7).breakpoints:
        assert vertex_lifts(ctx7, q)


def test_criterion_equals_all_vertices_lift():
    rng = random.Random(20240815)
    fans = [random_smooth_fan(rng) for _ in range(10)]
    count = 0
    for fan in fans:
        for _ in range(5):
            d = random_ample_divisor(rng, fan)
            v = random_direction(rng)
            ctx = make_context(d, v)
            verdict = is_finitely_generated(ctx)
            lifts = all(ok for _, _, ok in lifting_table(ctx))
            assert verdict.finitely_generated == lifts, (fan.rays, d.coeffs, v)
            count += 1
    assert count == 50


def test_sign_symmetry():
    rng = random.Random(43)
    for _ in range(25):
        fan = random_smooth_fan(rng)
        d = random_ample_divisor(rng, fan)
        v = random_direction(rng)
        a = is_finitely_generated(make_context(d, v)).finitely_generated
        b = is_finitely_generated(make_context(d, neg(v))).finitely_generated
        assert a == b


def test_degenerate_side_fallback():
    ctx = make_context(ToricDivisor.make(p2_fan(), {(-1, -1): 3}), (1, 1))
    verdict = is_finitely_generated(ctx)
    assert verdict.degenerate_side
    assert verdict.lifting is not None
    assert verdict.finitely_generated  # saturated simplex semigroup


def random_divisor_for_rays(rng):
    """An ample divisor on a smooth fan (zonotope offsets) or on the normal
    fan of a lattice polygon with coordinates up to 40, which may be
    singular, half and half, and a third of them scaled by 7/3."""
    if rng.randrange(2):
        fan = random_smooth_fan(rng)
        d = random_ample_divisor(rng, fan)
    else:
        p = RatPolygon.empty()
        while p.dim < 2:
            p = RatPolygon.from_vertices(
                [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(rng.randint(3, 7))])
        d = divisor_from_polytope(p)
    return ToricDivisor(d.fan, tuple(F(7, 3) * a for a in d.coeffs)) if rng.randrange(3) == 0 else d


@settings(max_examples=250, derandomize=True, deadline=None)
@given(SEED)
def test_one_sided_verdict_matches_lifting_at_ray_directions(seed):
    # at v = +-rho for a ray rho the edge of rho lies on an extreme level,
    # and where it is the longest chord one side cone is None; there +-v
    # is interior to the other side cone, and that cone alone gives the
    # verdict that lifting every Newton-Okounkov breakpoint gives
    divisor = random_divisor_for_rays(random.Random(seed))
    for v in [w for r in divisor.fan.rays for w in (r, neg(r))]:
        ctx = make_context(divisor, v)
        seg = max_segment(ctx.chord_walk)
        if (seg.sigma_plus is None) == (seg.sigma_minus is None):
            continue
        side, w = (seg.sigma_plus, v) if seg.sigma_minus is None else (seg.sigma_minus, neg(v))
        assert side.strictly_contains(w)
        assert one_sided_verdict(ctx) == all(ok for *_, ok in lifting_table(ctx)), (divisor, v)


def test_sigma_dual_contained_in_theta_tangents():
    # the side cones' duals sit inside the extremal tangent cones for all
    # slopes below the top one; at an extremal edge the tangent cone is a
    # halfplane holding the whole line <u, v> = 1 (resp. <u, -v> = 1), so
    # the pairing-one search that vertex_lifts runs says yes there
    from toricfg.cones import dual_cone
    from toricfg.semigroup import DegenerateTheta, q_hat, theta_extremal

    square = load_example("unit_square").context
    halfplanes = 0
    for ctx in (CTX, SEVENGON.context, square):
        verdict = is_finitely_generated(ctx)
        v = ctx.flag.v
        qh = q_hat(ctx)
        for i in range(4):
            q = qh * F(i, 5)
            try:
                cone_minus, cone_plus = theta_extremal(ctx, 1, q)
            except DegenerateTheta:
                continue
            dplus = dual_cone(verdict.sigma_plus)
            dminus = dual_cone(verdict.sigma_minus)
            if cone_minus.kind != "halfplane":
                assert all(cone_contains(cone_minus, g) for g in dplus.generators)
            else:
                assert exists_pairing_one(cone_minus, v)
                halfplanes += 1
            if cone_plus.kind != "halfplane":
                assert all(cone_contains(cone_plus, g) for g in dminus.generators)
            else:
                assert exists_pairing_one(cone_plus, neg(v))
                halfplanes += 1
    assert halfplanes == 8  # both sides of the square at four slopes


def test_fg_for_all_divisors_fixtures():
    res = fg_for_all_divisors(CTX.divisor.fan, (-2, 3))
    assert not res.holds
    assert res.failing_cone == cone((-1, 0), (1, 2))
    assert res.failing_direction == (-2, 3)
    # P1xP1: (1,1) survives every ray-pair cone, (1,2) does not
    assert fg_for_all_divisors(p1p1_fan(), (1, 1)).holds
    res2 = fg_for_all_divisors(p1p1_fan(), (1, 2))
    assert not res2.holds and res2.failing_cone.kind == "halfplane"


def test_fg_for_all_divisors_direction_on_ray():
    # v equal to a ray is never interior to a pair cone it bounds, so the
    # verdict comes from the remaining cones only
    res = fg_for_all_divisors(p1p1_fan(), (1, 0))
    assert res.holds


def test_fg_for_all_implies_fg_sampled():
    rng = random.Random(47)
    holds_seen = 0
    for _ in range(40):
        fan = random_smooth_fan(rng, max_subdivisions=2)
        v = random_direction(rng, bound=3)
        res = fg_for_all_divisors(fan, v)
        if not res.holds:
            continue
        holds_seen += 1
        for _ in range(3):
            d = random_ample_divisor(rng, fan)
            assert is_finitely_generated(make_context(d, v)).finitely_generated
    assert holds_seen >= 3


def test_construct_bad_divisor_reproduces_worked_example():
    fan2 = EXT_FAN
    sigma = cone((-1, 0), (1, 2))
    dtheta = ToricDivisor.make(fan2, {(1, 2): 6, (0, 1): 4, (1, 0): 2, (-1, 1): 6})
    out = construct_bad_divisor(fan2, sigma, (-2, 3), d_theta=dtheta)
    assert set(out.theta.vertices) == {(0, 0), (-2, 0), (-2, -2), (0, -3)}
    dprime = dict(zip(fan2.rays, out.d_prime.coeffs))
    assert dprime == {
        (1, 2): 13, (0, 1): 6, (1, 0): 5, (-1, 1): 6, (-1, 0): 0, (0, -1): 0,
    }
    final = dict(zip(fan2.rays, out.divisor.coeffs))
    assert final[(-1, 1)] == F(11, 2)
    assert set(divisor_polytope(out.divisor).vertices) == {
        (0, 0), (-5, 0), (-5, -4), (-1, -6), (F(-1, 2), -6), (0, F(-11, 2)),
    }


def test_construct_bad_divisor_postconditions_randomized():
    rng = random.Random(53)
    built = 0
    for _ in range(30):
        fan = random_smooth_fan(rng, max_subdivisions=3)
        v = random_direction(rng, bound=3)
        res = fg_for_all_divisors(fan, v)
        if res.holds or res.failing_cone.kind != "cone":
            continue
        out = construct_bad_divisor(fan, res.failing_cone, res.failing_direction)
        ctx = make_context(out.divisor, res.failing_direction)
        assert not is_finitely_generated(ctx).finitely_generated
        assert colon(ctx.p_d, ctx.flag.nabla_prime) == out.theta
        assert out.p_d == divisor_polytope(out.divisor)
        assert contains_polygon(out.p_d, minkowski_sum(out.theta, ctx.flag.nabla_prime))
        built += 1
    assert built >= 5


def test_construct_bad_divisor_halfplane_sigma():
    h = halfplane((1, 0), (1, 2))
    out = construct_bad_divisor(p1p1_fan(), h, (1, 2))
    ctx = make_context(out.divisor, (1, 2))
    assert not is_finitely_generated(ctx).finitely_generated
    assert colon(ctx.p_d, ctx.flag.nabla_prime) == out.theta
    assert contains_polygon(out.p_d, minkowski_sum(out.theta, ctx.flag.nabla_prime))


def test_halfplane_construction_stretches_the_requested_halfplane():
    # at weight 1 the verdict's sigma_plus is the halfplane on +-(1, 2),
    # not the requested one on +-(0, 1); weight 2 is the first to give it
    fan = Fan2.from_rays([(1, 2), (0, 1), (-1, -2), (0, -1)])
    sigma = halfplane((0, 1), (3, -1))
    out = construct_bad_divisor(fan, sigma, (3, -1))
    assert out.divisor.coeffs == (3, 1, 3, 1)
    verdict = is_finitely_generated(make_context(out.divisor, (3, -1)))
    assert not verdict.finitely_generated and verdict.sigma_plus == sigma


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32))
def test_halfplane_construction_verdict_has_the_requested_sigma(seed):
    # a complete fan with rays +-g, a pair +-r off their line and up to
    # four more rays, and a direction strongly decomposable in a halfplane
    # on g
    rng = random.Random(seed)
    g = random_direction(rng, bound=3)
    rays = {g, neg(g)}
    while len(rays) < 4 + rng.randint(0, 4):
        r = random_direction(rng, bound=3)
        if det(g, r):
            rays.update((r, neg(r)) if len(rays) == 2 else (r,))
    v = random_direction(rng, bound=4)
    assume(abs(det(g, v)) > 1)
    fan, sigma = Fan2.from_rays(sorted(rays)), halfplane(g, v)
    out = construct_bad_divisor(fan, sigma, v)
    verdict = is_finitely_generated(make_context(out.divisor, v))
    assert not verdict.finitely_generated and verdict.sigma_plus == sigma


def test_halfplane_construction_at_weight_8192():
    # the edges' level ranges first overlap at weight 8192, so a weight
    # search capped at 4096 finds no divisor here
    fan = Fan2.from_rays([(4238, 3715), (-2, 3), (-3311, 4629), (2, -3), (3637, -3496)])
    sigma = halfplane((2, -3), (1, -3))
    out = construct_bad_divisor(fan, sigma, (1, -3))
    assert out.divisor.coeffs == (196957859, 675, 5530275, 24063, 65696287)
    verdict = is_finitely_generated(make_context(out.divisor, (1, -3)))
    assert not verdict.finitely_generated and verdict.sigma_plus == sigma


@st.composite
def antiparallel_fans(draw):
    """(rays, g, v): a complete fan with rays +-g, a pair +-r off their
    line and up to four more rays, coordinates up to 200, and a direction
    of max-norm up to 10^4."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_direction(rng, bound=200)
    rays = {g, neg(g)}
    while len(rays) < 4 + rng.randint(0, 4):
        r = random_direction(rng, bound=200)
        if det(g, r):
            rays.update((r, neg(r)) if len(rays) == 2 else (r,))
    return tuple(sorted(rays)), g, random_direction(rng, bound=10**4)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(antiparallel_fans())
@example((((36063, 21292), (-1, 2), (-39012, -40403), (1, -2)), (-1, 2), (-1, 0)))
@example((((4238, 3715), (-2, 3), (-3311, 4629), (2, -3), (3637, -3496)), (2, -3), (1, -3)))
def test_halfplane_weight_matches_the_doubling_search(case):
    # the computed stretch weight gives the divisor that the search over
    # weights 1, 2, 4, ... stops at (16384 and 8192 on the two examples)
    rays, g, v = case
    assume(abs(det(g, v)) > 1)
    fan, sigma = Fan2.from_rays(rays), halfplane(g, v)
    assert construct_bad_divisor(fan, sigma, v).divisor == search_halfplane_divisor(fan, sigma, v)


def test_construct_bad_divisor_rejects_non_decomposable():
    with pytest.raises(ValueError):
        construct_bad_divisor(p1p1_fan(), cone((1, 0), (0, 1)), (1, 1))


def test_construct_bad_divisor_checks_sigma_once_for_both_kinds():
    # a ray is no sigma, and a halfplane whose boundary is not a ray pair
    # fails the generator check that pointed cones pass through too
    with pytest.raises(ValueError, match="two-dimensional cone or a halfplane"):
        construct_bad_divisor(p1p1_fan(), ray((1, 0)), (1, 2))
    with pytest.raises(ValueError, match="not a ray of the fan"):
        construct_bad_divisor(p1p1_fan(), halfplane((1, 1), (1, -1)), (1, -1))
    with pytest.raises(ValueError, match="not strongly decomposable"):
        construct_bad_divisor(p1p1_fan(), halfplane((1, 0), (1, 1)), (1, 1))


def test_failing_cones_rejects_a_non_primitive_direction():
    # the same exception as flag_data for the same input
    with pytest.raises(NonPrimitiveDirection):
        fg_for_all_divisors(p2_fan(), (2, 4))


FAN8 = Fan2.from_rays([(1, 0), (1, 2), (0, 1), (-2, 3), (-1, 1), (-1, 0), (0, -1), (2, -3)])
SEGMENT = RatPolygon.from_vertices([(0, 0), (3, 2)])


@pytest.mark.parametrize("d_theta", [
    ToricDivisor.make(EXT_FAN, [0] * len(EXT_FAN.rays)),
    ToricDivisor.make(EXT_FAN, [-1] * len(EXT_FAN.rays)),
    # conv((0, 0), (3, 2)) lies on the level <u, (-2, 3)> = 0
    ToricDivisor.make(FAN8, {r: -SEGMENT.support_min(r) for r in FAN8.rays}),
], ids=["point", "empty", "segment_on_one_level"])
def test_construct_bad_divisor_refuses_a_degenerate_model_polygon(d_theta):
    # a caller's d_theta whose polygon has no tangent cone along v is
    # refused before one is read
    with pytest.raises(ConstructionFailed, match="empty or has width 0 along v"):
        construct_bad_divisor(d_theta.fan, cone((-1, 0), (1, 2)), (-2, 3), d_theta=d_theta)


def test_lowering_takes_the_midpoint_below_top_and_stops_at_the_floor():
    # the other rays cut out the square [-1, 1]^2, whose vertex levels
    # -<u, r> at r = (1, 1) are top = 2, then 0 and -2: ray r supports an
    # edge iff a_r < 2, and a lowered a_r is the midpoint of 2 and the
    # larger of 0 and the floor
    fan = Fan2.from_rays([(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)])
    idx = fan.rays.index((1, 1))
    for a, floor, lowered in ((3, -5, 1), (2, -5, 1), (2, 1, F(3, 2)), (F(7, 4), 1, F(7, 4))):
        coeffs = [a if r == (1, 1) else 1 for r in fan.rays]
        floors = [floor if r == (1, 1) else -5 for r in fan.rays]
        assert _lower_coefficient(fan, coeffs, idx, floor) == lowered
        assert search_lowered_coefficients(fan, [(1, 1)], coeffs, floors)[idx] == lowered
    # a floor at top leaves no value: each lower a_r cuts into theta + nabla'
    coeffs = [2 if r == (1, 1) else 1 for r in fan.rays]
    with pytest.raises(ConstructionFailed, match="no feasible coefficient"):
        _lower_coefficient(fan, coeffs, idx, 2)
    with pytest.raises(ConstructionFailed, match="no feasible coefficient"):
        search_lowered_coefficients(fan, [(1, 1)], coeffs, [2] * len(fan.rays))


def _random_fan(rng, smooth):
    if smooth:
        return random_smooth_fan(rng)
    while True:
        rays = {(a, b) for a, b in ((rng.randint(-7, 7), rng.randint(-7, 7))
                                    for _ in range(rng.randint(3, 8))) if gcd(a, b) == 1}
        try:
            return Fan2.from_rays(rays)
        except InvalidFan:
            continue


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32),
    st.booleans(),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda u: gcd(*u) == 1),
)
def test_closed_form_lowering_matches_trial_search(seed, smooth, v):
    # on every failing pointed cone the lowered divisor is the one the trial
    # search over the midpoints of the critical intervals finds, and the
    # construction fails exactly when that search (or the tangent check
    # before it) does
    fan = _random_fan(random.Random(seed), smooth)
    for sigma, w in failing_cones(fan, v):
        if sigma.kind != "cone":
            continue
        interior = [r for r in fan.rays if sigma.strictly_contains(r)]
        d_theta = _synthesize_d_theta(fan, interior, [r for r in fan.rays if r not in interior])
        theta0 = divisor_polytope(d_theta)
        cprime = flag_data(fan, w).cprime_coeffs
        d_prime = ToricDivisor.make(fan, cprime) + d_theta
        floors = [c - theta0.support_min(r) for r, c in zip(fan.rays, cprime)]
        try:
            _check_tangent(theta0, sigma, w)
            expected = search_lowered_coefficients(fan, interior, d_prime.coeffs, floors)
        except ConstructionFailed:
            expected = None
        try:
            out = construct_bad_divisor(fan, sigma, w)
        except ConstructionFailed:
            out = None
        assert (out is None) == (expected is None), (fan, sigma, w)
        if out is not None:
            assert (out.d_prime, out.theta) == (d_prime, theta0)
            assert out.divisor == ToricDivisor.make(fan, expected)


def test_scan_directions_fixtures():
    results = scan_directions(divisor_from_polytope(CTX.p_d), 3)
    table = dict(results)
    assert not table[(2, -3)].finitely_generated  # antipode of (-2,3)
    assert (0, 1) in table and (1, 0) in table
    assert all(v[0] > 0 or (v[0] == 0 and v[1] > 0) for v, _ in results)
    results7 = scan_directions(divisor_from_polytope(SEVENGON.p_d), 1)
    assert results7 and dict(results7)[(0, 1)].finitely_generated


def test_scan_directions_deterministic_order():
    results = scan_directions(divisor_from_polytope(load_example("unit_square").p_d), 3)
    dirs = [v for v, _ in results]
    assert dirs == sorted(dirs)
    assert all(gcd(a, b) == 1 for a, b in dirs)
    assert len(set(dirs)) == len(dirs)


def test_max_segment_q_hat_matches_parametric_feasibility():
    # the longest chord and the halfplane-system bound compute the same
    # top slope
    from toricfg.semigroup import q_hat

    rng = random.Random(67)
    for _ in range(40):
        fan = random_smooth_fan(rng)
        d = random_ample_divisor(rng, fan)
        v = random_direction(rng)
        ctx = make_context(d, v)
        assert max_segment(ChordWalk(ctx.p_d, v)).q_hat == q_hat(ctx) == helly_q_hat(ctx)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(SEED)
def test_max_segment_and_q_hat_match_oracles(seed):
    from toricfg.semigroup import q_hat

    rng = random.Random(seed)
    fan = random_smooth_fan(rng)
    d = random_ample_divisor(rng, fan)
    scale = rng.choice([1, F(7, 3), 2**40 + 15])
    # a quarter of the directions have max-norm 1, along an axis or diagonal
    v = random_direction(rng, rng.choice((1, 30, 30, 30)))
    ctx = make_context(ToricDivisor(fan, tuple(scale * a for a in d.coeffs)), v)
    assert max_segment(ChordWalk(ctx.p_d, v)) == vertex_level_max_segment(ctx.p_d, v)
    assert q_hat(ctx) == helly_q_hat(ctx)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(SEED)
def test_max_chord_on_divisor_polytopes_matches_oracle(seed):
    rng = random.Random(seed)
    fan = random_smooth_fan(rng)
    d = random_ample_divisor(rng, fan)
    scale = rng.choice([1, F(7, 3), 2**40 + 15])
    v = random_direction(rng, rng.choice((1, 30, 30, 30)))
    p_d = divisor_polytope(ToricDivisor(fan, tuple(scale * a for a in d.coeffs)))
    assert ChordWalk(p_d, v).length == line_interval_max_chord(p_d, v)[0]


def test_scan_segments_match_a_fresh_context():
    # the scan's chord walk on sym16gon gives each direction the segment
    # and top slope that a context built for that direction alone gives
    divisor = load_example("sym16gon", "scan").divisor
    rows = scan_directions(divisor, 3)
    for v, verdict in rows:
        ctx = make_context(divisor, v)
        assert max_segment(ChordWalk(ctx.p_d, v)) == verdict.segment
        assert ctx.q_hat == verdict.segment.q_hat
    assert len(rows) == 16


def test_relaxation_matches_search_on_random_fans():
    rng = random.Random(71)
    relaxed = []
    while len(relaxed) < 150:
        try:
            fan = Fan2.from_rays({
                (a, b) for a, b in ((rng.randint(-7, 7), rng.randint(-7, 7))
                                    for _ in range(rng.randint(3, 8)))
                if gcd(a, b) == 1
            })
        except InvalidFan:
            continue
        k = len(fan.rays)
        start, size = rng.randrange(k), rng.randint(1, k - 2)
        interior = [fan.rays[(start + i) % k] for i in range(size)]
        outer = [r for r in fan.rays if r not in interior]
        base = {r: sum(max(0, det(r, t)) for t in outer) for r in outer}
        try:
            theta_inf = RatPolygon.from_halfplanes([(r, -b) for r, b in base.items()])
        except UnboundedRegion:
            continue
        relax = search_relaxation(theta_inf, interior)
        assert _relaxation(theta_inf, interior) == relax
        coeffs = _synthesize_d_theta(fan, interior, outer).coeffs
        assert [coeffs[fan.rays.index(r)] for r in interior] == [relax] * size
        relaxed.append(relax)
    assert len(set(relaxed)) > 20
    # the floor of 1, an integral and a fractional support value
    shifted = RatPolygon.from_vertices([(1, 1), (F(5, 2), 1), (1, 3)])
    for rays, relax in (([(1, 0)], 1), ([(-1, 0)], 3), ([(-1, 0), (0, -1)], 4)):
        assert _relaxation(shifted, rays) == search_relaxation(shifted, rays) == relax


RATIONAL_POOLS = rational_pools(6, 4)


def random_rational_points(rng):
    """3 to 7 points whose coordinates come from 2 to 6 values, each drawn
    as ``rationals(6, 4)`` draws it (an integer or any value, half and
    half): shared coordinates give edges along the axes and diagonals, so
    the longest chord often lies on an edge or spans a plateau."""
    values = [rng.choice(rng.choice(RATIONAL_POOLS)) for _ in range(rng.randint(2, 6))]
    return [(rng.choice(values), rng.choice(values)) for _ in range(rng.randint(3, 7))]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(SEED)
def test_max_segment_on_random_polygons_matches_oracle(seed):
    rng = random.Random(seed)
    points = random_rational_points(rng)
    # a third of the directions have max-norm 1, along an axis or diagonal
    v = random_direction(rng, rng.choice((1, 4, 4)))
    p = RatPolygon.from_vertices(points)
    assume(p.dim == 2)
    assert max_segment(ChordWalk(p, v)) == vertex_level_max_segment(p, v)


def test_scan_accepts_polygon_and_divisor():
    # a polygon is scanned through the divisor it determines
    by_poly = scan_directions(divisor_from_polytope(CTX.p_d), 1)
    by_div = scan_directions(CTX.divisor, 1)
    verdicts = lambda rows: [(v, r.finitely_generated) for v, r in rows]
    assert verdicts(by_poly) == verdicts(by_div)


def test_lift_search_agrees_on_constructed_divisor():
    from toricfg.oracles import lift_search

    fan2 = EXT_FAN
    sigma = cone((-1, 0), (1, 2))
    out = construct_bad_divisor(fan2, sigma, (-2, 3))
    ctx = make_context(out.divisor, (-2, 3))
    for q, _ in newton_okounkov_body(ctx).breakpoints:
        assert (lift_search(ctx, q, 60) is not None) == vertex_lifts(ctx, q)


def _mapped(m, u):
    (a, b), (c, d) = m
    return (a * u[0] + b * u[1], c * u[0] + d * u[1])


def _mapped_cone(m, c):
    """The cone c with its generators mapped by m, rebuilt by the
    constructor of its kind; a halfplane keeps the side of rot90(g)."""
    if c is None:
        return None
    g = c.generators[0]
    if c.kind == "ray":
        return ray(_mapped(m, g))
    if c.kind == "halfplane":
        return halfplane(_mapped(m, g), _mapped(m, rot90(g)))
    return cone(*(_mapped(m, h) for h in c.generators))


CELLS = ((1, 0), (2, 1), (3, 2))


def _invariants(ctx, verdict):
    return (verdict.finitely_generated, verdict.degenerate_side, verdict.lifting, ctx.q_hat,
            [e_bar(ctx, l, k) for l, k in CELLS])


def _side_fields(verdict):
    return (verdict.finitely_generated, verdict.degenerate_side, verdict.sigma_plus,
            verdict.sigma_minus, verdict.splits)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(SEED)
def test_verdict_is_invariant_under_lattice_maps_and_dilation(seed):
    # mapping the rays and v by M in GL2(Z), with the same coefficients,
    # moves P_D by the inverse transpose of M and keeps every level
    # <u, v>: the verdict, lifting table, q_hat, NO body and e_bar stay
    # and the side cones and splits map by M.  Dilating D by one lam of
    # 2, 3 and 7/3 dilates P_D and the NO body and keeps the side cones.
    # A direction +-rho along a ray often gives a degenerate verdict.  The
    # witnesses are never read: the lexicographically first split is not
    # equivariant, and its search grows with the entries of M.
    # lift_search's lambda is compared only at det M = 1, as reflections
    # can change it (test_oracles.py's swapped slanted_quad)
    rng = random.Random(seed)
    fan = random_smooth_fan(rng)
    d = random_ample_divisor(rng, fan)
    if rng.randrange(3) == 0:
        d = ToricDivisor.make(fan, [F(7, 3) * a for a in d.coeffs])
    ray_dir = rng.choice(fan.rays)
    v = rng.choice([random_direction(rng), ray_dir, neg(ray_dir)])
    m = random_unimodular(rng, rng.choice((1, 6, 30)))
    lam = rng.choice((2, 3, F(7, 3)))
    start = time.perf_counter()
    ctx = make_context(d, v)
    moved_fan = Fan2.from_rays([_mapped(m, r) for r in fan.rays])
    moved = make_context(
        ToricDivisor.make(moved_fan, {_mapped(m, r): a for r, a in zip(fan.rays, d.coeffs)}),
        _mapped(m, v))
    verdict, moved_verdict = is_finitely_generated(ctx), is_finitely_generated(moved)
    body = newton_okounkov_body(ctx)
    assert _invariants(moved, moved_verdict) == _invariants(ctx, verdict), (seed, m)
    assert newton_okounkov_body(moved) == body
    assert moved_verdict.sigma_plus == _mapped_cone(m, verdict.sigma_plus)
    assert moved_verdict.sigma_minus == _mapped_cone(m, verdict.sigma_minus)
    assert moved_verdict.splits == tuple(
        s and (_mapped(m, s[0]), _mapped_cone(m, s[1])) for s in verdict.splits)
    if det(*m) == 1:
        for q, _ in body.breakpoints:
            assert lift_search(moved, q) == lift_search(ctx, q), (seed, m, q)
    dilated = make_context(ToricDivisor.make(fan, [lam * a for a in d.coeffs]), v)
    assert _side_fields(is_finitely_generated(dilated)) == _side_fields(verdict), (seed, lam)
    assert newton_okounkov_body(dilated).polygon == body.polygon.dilate(lam), (seed, lam)
    assert time.perf_counter() - start < 1, (seed, m)
