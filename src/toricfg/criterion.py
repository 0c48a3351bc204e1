"""Finite-generation criterion: the maximal cross-section of the divisor
polytope orthogonal to the flag direction, the two cones spanned by the
edge normals on either side of it, decomposability verdicts with
witnesses, the vertex-lifting test on Newton-Okounkov breakpoints, the
all-divisors criterion over ray-pair cones, and the constructive search
for a bad ample divisor when a decomposable cone exists."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .cones import (
    Cone2,
    cone,
    dual_cone,
    exists_pairing_one,
    is_strongly_decomposable,
)
from .fans import (
    Fan2,
    ToricDivisor,
    ample_polytope,
    divisor_polytope,
    flag_data,
    is_ample,
    is_primitive,
)
from .geometry import (
    ChordWalk,
    DegeneratePolygon,
    RatPolygon,
    dot,
    det,
    floor_frac,
    int_vector,
    neg,
    rational,
    width,
)
from .semigroup import (
    FlagContext,
    make_context,
    newton_okounkov_body,
    tangent_cone,
    theta,
    theta_extremal,
)


class DegenerateSide(ValueError):
    """The maximal cross-section sits at an extreme pairing level, so one
    of the side cones is undefined; callers fall back to the lifting
    test."""


class ConstructionFailed(RuntimeError):
    """The bad-divisor search exhausted its bounded options."""


class SegmentData(NamedTuple):
    """A maximal-length cross-section of P_D orthogonal to v.

    level may be the midpoint of a maximizing interval; v2 - v1 = q_hat*m.
    The four normals are the inner normals of the edge parts at the two
    endpoints above (plus) and below (minus) the level, None when that
    side is empty (extreme level)."""

    level: Fraction
    v1: tuple
    v2: tuple
    q_hat: Fraction
    n1_above: tuple | None
    n2_above: tuple | None
    n1_below: tuple | None
    n2_below: tuple | None


def max_segment(p_d: RatPolygon, v) -> SegmentData:
    """The longest cross-section and the inner normals at its endpoints.

    An interval of maximizing levels is resolved to its midpoint (the
    endpoints then lie in edge interiors and the side normals do not
    depend on the choice).  Both ends and the boundary edges continuing
    them above and below the level come from the chain walk of
    ``ChordWalk``; the halfplane of ring edge i is ``p_d.lines[i]``."""
    if p_d.dim != 2:
        raise DegeneratePolygon("cross-sections need a two-dimensional polytope")
    walk = ChordWalk(p_d, int_vector(v))
    c, (v1, n1b, n1a), (v2, n2b, n2a) = walk.ends()
    n1a, n2a, n1b, n2b = (None if i is None else p_d.lines[i][0]
                          for i in (n1a, n2a, n1b, n2b))
    return SegmentData(c, v1, v2, walk.length, n1a, n2a, n1b, n2b)


def sigma_cones(seg: SegmentData, v) -> tuple:
    """(sigma_plus, sigma_minus): sigma_minus is spanned by the inner
    normals of the edge parts above the level, sigma_plus by those below;
    antiparallel normals give the halfplane containing -v resp. v."""
    if seg.n1_above is None or seg.n2_above is None:
        raise DegenerateSide("no edge parts above the maximal cross-section")
    if seg.n1_below is None or seg.n2_below is None:
        raise DegenerateSide("no edge parts below the maximal cross-section")
    v = int_vector(v)
    sigma_minus = cone(seg.n1_above, seg.n2_above, neg(v))
    sigma_plus = cone(seg.n1_below, seg.n2_below, v)
    return sigma_plus, sigma_minus


class FGVerdict(NamedTuple):
    """Verdict plus evidence: decomposition witnesses on failure, the side
    cones, and (only on the degenerate fallback, else None) the
    per-breakpoint lifting table of the Newton-Okounkov body."""

    finitely_generated: bool
    sigma_plus: Cone2 | None
    sigma_minus: Cone2 | None
    witness_plus: tuple | None
    witness_minus: tuple | None
    degenerate_side: bool
    lifting: tuple | None
    segment: SegmentData


def vertex_lifts(ctx: FlagContext, q) -> bool:
    """Does the breakpoint (1, q, d(q)) of the Newton-Okounkov body lift
    to the semigroup?

    Zero width at the top slope always lifts (clear denominators);
    otherwise the tangent cone at the v-minimal face must contain a
    lattice point pairing to +1 with the direction, and the one at the
    v-maximal face a point pairing to -1.  At an extremal edge the
    tangent cone is a halfplane containing the whole line <u, +-v> = 1,
    so the search says yes there."""
    q = rational(q)
    t = theta(ctx, 1, q)
    if t.is_empty:
        raise ValueError("slope outside [0, q_hat]")
    v = ctx.flag.v
    if width(t, v) == 0:
        return True
    cone_minus, cone_plus = theta_extremal(ctx, 1, q)
    return exists_pairing_one(cone_minus, v) and exists_pairing_one(cone_plus, neg(v))


def lifting_table(ctx: FlagContext) -> tuple:
    body = newton_okounkov_body(ctx)
    return tuple((q, d, vertex_lifts(ctx, q)) for q, d in body.breakpoints)


def is_finitely_generated(ctx: FlagContext) -> FGVerdict:
    """Finitely generated iff v is not strongly decomposable in sigma_plus
    and -v is not strongly decomposable in sigma_minus.  When the maximal
    cross-section sits at an extreme level (one side cone undefined) the
    verdict falls back to lifting every Newton-Okounkov breakpoint."""
    v = ctx.flag.v
    seg = max_segment(ctx.p_d, v)
    try:
        sigma_plus, sigma_minus = sigma_cones(seg, v)
    except DegenerateSide:
        table = lifting_table(ctx)
        return FGVerdict(
            finitely_generated=all(ok for _, _, ok in table),
            sigma_plus=None,
            sigma_minus=None,
            witness_plus=None,
            witness_minus=None,
            degenerate_side=True,
            lifting=table,
            segment=seg,
        )
    dec_plus, wit_plus = is_strongly_decomposable(v, sigma_plus)
    dec_minus, wit_minus = is_strongly_decomposable(neg(v), sigma_minus)
    return FGVerdict(
        finitely_generated=not dec_plus and not dec_minus,
        sigma_plus=sigma_plus,
        sigma_minus=sigma_minus,
        witness_plus=wit_plus,
        witness_minus=wit_minus,
        degenerate_side=False,
        lifting=None,
        segment=seg,
    )


class FGAllResult(NamedTuple):
    holds: bool
    failing_cone: Cone2 | None
    failing_direction: tuple | None
    witness: tuple | None


def failing_cones(fan: Fan2, v):
    """Lazily yield (cone, w, witness) for every cone spanned by a pair of
    rays in which w = v or w = -v is strongly decomposable, in ray-pair
    order.  Antiparallel pairs contribute the two halfplanes they bound."""
    v = int_vector(v)
    if not is_primitive(v):
        raise ValueError("direction must be primitive")
    for ri, rj in itertools.combinations(fan.rays, 2):
        if det(ri, v) == 0 or det(rj, v) == 0:
            continue  # +-v on a ray's line is interior to no cone of the pair
        for w in (v, neg(v)):
            c = cone(ri, rj, w)
            if c.strictly_contains(w):
                dec, wit = is_strongly_decomposable(w, c)
                if dec:
                    yield c, w, wit


def fg_for_all_divisors(fan: Fan2, v) -> FGAllResult:
    """True iff neither v nor -v is strongly decomposable in any cone
    spanned by a pair of rays.  Returns the first failing cone otherwise."""
    for c, w, wit in failing_cones(fan, v):
        return FGAllResult(False, c, w, wit)
    return FGAllResult(True, None, None, None)


class BadDivisorConstruction(NamedTuple):
    divisor: ToricDivisor
    d_prime: ToricDivisor
    d_theta: ToricDivisor
    theta: RatPolygon
    p_d: RatPolygon


def construct_bad_divisor(
    fan: Fan2, sigma: Cone2, v, d_theta: ToricDivisor | None = None
) -> BadDivisorConstruction:
    """Build an ample divisor whose valuation semigroup fails finite
    generation, given a ray-spanned cone in which v is strongly
    decomposable.

    Pointed sigma: (1) pick a divisor whose polytope has the dual of
    sigma as tangent cone at its v-minimal vertex (strict convexity at
    every ray outside the interior of sigma, relaxed coefficients
    inside); (2) add the invariant flag-curve divisor; (3) lower each
    interior-ray coefficient a_r in turn until r supports an edge.  P_D is
    cut out by the ray halfplanes, so it contains theta + nabla' iff
    every a_r stays at or above its floor c'_r - min <theta, r>.  With
    the other coefficients fixed, let p_wo be the polygon of the other
    rays: r supports an edge iff a_r < top = -min <p_wo, r>, and each
    earlier ray keeps its edge iff a_r stays above the level -<u, r> of
    one vertex u of that edge in p_wo.  So the accepted values of a_r
    form one interval whose ends are vertex levels or the floor, and
    lowering takes the midpoint of top and the largest vertex level or
    floor below it; there is none when the floor is at least top.  The
    accepted set only shrinks as a_r falls, so when that midpoint costs
    an earlier ray its edge no lower value helps either, and the
    ampleness check at the end fails.
    A halfplane sigma instead stretches its antiparallel edge pair until
    the maximal cross-section ends on both edge interiors, so that the
    verdict's sigma_plus is sigma itself."""
    v = int_vector(v)
    if sigma.kind == "halfplane":
        return _construct_bad_halfplane(fan, sigma, v)
    flag = flag_data(fan, v)
    if sigma.kind != "cone":
        raise ValueError("sigma must be a two-dimensional cone or a halfplane")
    for g in sigma.generators:
        if g not in fan.rays:
            raise ValueError(f"cone generator {g} is not a ray of the fan")
    dec, _ = is_strongly_decomposable(v, sigma)
    if not dec:
        raise ValueError("direction is not strongly decomposable in sigma")
    interior = [r for r in fan.rays if sigma.strictly_contains(r)]
    outer = [r for r in fan.rays if r not in interior]

    if d_theta is None:
        d_theta = _synthesize_d_theta(fan, interior, outer)
    theta0 = divisor_polytope(d_theta)
    _check_tangent(theta0, sigma, v)

    d_prime = ToricDivisor.make(fan, flag.cprime_coeffs) + d_theta
    floors = [c - theta0.support_min(r) for r, c in zip(fan.rays, flag.cprime_coeffs)]
    coeffs = list(d_prime.coeffs)
    for idx, r in enumerate(fan.rays):
        if r in interior:
            coeffs[idx] = _lower_coefficient(fan, coeffs, idx, floors[idx])
    divisor = ToricDivisor.make(fan, coeffs)
    p_d = ample_polytope(divisor)
    if p_d is None:
        raise ConstructionFailed("lowering did not reach an ample divisor")
    if any(a < b for a, b in zip(coeffs, floors)):
        raise ConstructionFailed("a coefficient fell below its floor while lowering")
    ctx = FlagContext(divisor, flag, p_d)
    if theta(ctx, 1, 1) != theta0:
        raise ConstructionFailed("colon polytope drifted from the prescribed one")
    verdict = is_finitely_generated(ctx)
    if verdict.finitely_generated:
        raise ConstructionFailed("constructed divisor is unexpectedly finitely generated")
    return BadDivisorConstruction(divisor, d_prime, d_theta, theta0, p_d)


def _synthesize_d_theta(fan: Fan2, interior, outer) -> ToricDivisor:
    # zonotope offsets give strict convexity at every outer ray
    base = {r: sum(max(0, det(r, t)) for t in outer) for r in outer}
    theta_inf = RatPolygon.from_halfplanes([(r, -b) for r, b in base.items()])
    relax = _relaxation(theta_inf, interior)
    return ToricDivisor.make(fan, base | {r: relax for r in interior})


def _relaxation(theta_inf: RatPolygon, interior) -> int:
    """The least integer a >= 1 with support_min(r) > -a at every interior
    ray r, so that the halfplanes <u, r> >= -a cut nothing off theta_inf."""
    return max([1] + [floor_frac(-theta_inf.support_min(r)) + 1 for r in interior])


def _check_tangent(theta0: RatPolygon, sigma: Cone2, v):
    face = theta0.face(v)
    if len(face) != 1:
        raise ConstructionFailed("v-minimal face of the model polytope is not a vertex")
    if tangent_cone(theta0, face) != dual_cone(sigma):
        raise ConstructionFailed(
            "model polytope does not have the dual cone as tangent cone"
        )


def _lower_coefficient(fan, coeffs, idx, floor):
    """a_r unchanged when ray r already supports an edge, else the
    midpoint of top and the largest vertex level or floor below it (see
    construct_bad_divisor); levels are read on the int ring of p_wo."""
    r = fan.rays[idx]
    p_wo = RatPolygon.from_halfplanes(
        [(rr, -a) for k, (rr, a) in enumerate(zip(fan.rays, coeffs)) if k != idx]
    )
    scale = p_wo.scale
    levels = sorted({-dot(u, r) for u in p_wo.ring}, reverse=True)
    top = levels[0]
    if coeffs[idx] * scale < top:
        return coeffs[idx]
    if floor * scale >= top:
        raise ConstructionFailed(f"no feasible coefficient below {coeffs[idx]} at ray {r}")
    return (Fraction(top, scale) + max(Fraction(levels[1], scale), floor)) / 2


def _construct_bad_halfplane(fan: Fan2, sigma: Cone2, v) -> BadDivisorConstruction:
    g = sigma.generators[0]
    if g not in fan.rays or neg(g) not in fan.rays:
        raise ValueError("halfplane boundary must be an antiparallel ray pair")
    dec, _ = is_strongly_decomposable(v, sigma)
    if not dec:
        raise ValueError("direction is not strongly decomposable in sigma")
    base = {r: sum(max(0, det(r, t)) for t in fan.rays) for r in fan.rays}
    weight = 1
    while weight <= 4096:
        coeffs = {r: base[r] + weight * abs(det(g, r)) for r in fan.rays}
        divisor = ToricDivisor.make(fan, coeffs)
        ctx = make_context(divisor, v)
        verdict = is_finitely_generated(ctx)
        if (
            not verdict.finitely_generated
            and not verdict.degenerate_side
            and verdict.sigma_plus == sigma
        ):
            return BadDivisorConstruction(
                divisor, divisor, divisor, theta(ctx, 1, 1), ctx.p_d
            )
        weight *= 2
    raise ConstructionFailed("edge stretching never produced the halfplane cones")


def scan_directions(divisor: ToricDivisor, bound: int):
    """is_finitely_generated for every primitive direction of max-norm at
    most the bound, one representative per antipodal pair, in
    lexicographic order."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if not is_ample(divisor):
        raise ValueError("scan needs an ample divisor")
    out = []
    for a in range(0, bound + 1):
        bs = [1] if a == 0 else range(-bound, bound + 1)
        for b in bs:
            if (a, b) == (0, 0) or not is_primitive((a, b)):
                continue
            ctx = make_context(divisor, (a, b), require_ample=False)
            out.append(((a, b), is_finitely_generated(ctx)))
    return out
