"""Finite-generation criterion: the maximal cross-section of the divisor
polytope orthogonal to the flag direction, read off the context's one
chord walk together with the two side cones spanned by the edge normals
on either side of it (None where that side is empty, which sends the
verdict to the lifting fallback), decomposability verdicts whose
witnesses are searched when read, the vertex-lifting test on
Newton-Okounkov breakpoints, the all-divisors criterion over ray-pair
cones, and the closed-form construction of a bad ample divisor when a
decomposable cone exists."""

from __future__ import annotations

import itertools
import math
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
    NonPrimitiveDirection,
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
    int_vector,
    neg,
    width,
)
from .oracles import brute_decompose
from .semigroup import (
    FlagContext,
    make_context,
    newton_okounkov_body,
    tangent_cone,
    theta,
    theta_extremal,
)


class ConstructionFailed(RuntimeError):
    """A bad-divisor construction step failed, or its divisor failed the
    confirming verdict."""


class SegmentData(NamedTuple):
    """A maximal-length cross-section of P_D orthogonal to v, with its
    side cones.

    level may be the midpoint of a maximizing interval; v2 - v1 = q_hat*m.
    sigma_plus is spanned by the inner normals of the edge parts at the
    two endpoints below the level, sigma_minus by those above; a side
    cone is None when its side is empty (an extreme level)."""

    level: Fraction
    v1: tuple
    v2: tuple
    q_hat: Fraction
    sigma_plus: Cone2 | None
    sigma_minus: Cone2 | None


def max_segment(walk: ChordWalk) -> SegmentData:
    """The longest cross-section of the walked polygon and its side cones.

    An interval of maximizing levels is resolved to its midpoint (the
    endpoints then lie in edge interiors and the side cones do not
    depend on the choice).  Both ends and the boundary edges continuing
    them above and below the level come from ``walk.ends()``; the
    halfplane of ring edge i is ``walk.polygon.lines[i]``.  Antiparallel
    normals span the halfplane containing v below the level and -v
    above it."""
    p_d, v = walk.polygon, walk.v
    if p_d.dim != 2:
        raise DegeneratePolygon("cross-sections need a two-dimensional polytope")
    c, (v1, n1b, n1a), (v2, n2b, n2a) = walk.ends()

    def side(i, j, inside):
        return None if i is None or j is None else cone(p_d.lines[i][0], p_d.lines[j][0], inside)

    return SegmentData(c, v1, v2, walk.length, side(n1b, n2b, v), side(n1a, n2a, neg(v)))


class FGVerdict(NamedTuple):
    """Verdict plus evidence: the side cones, the (w, cone) pair of each
    decomposable side (None on an indecomposable or degenerate side), and
    (only on the degenerate fallback, else None) the per-breakpoint
    lifting table of the Newton-Okounkov body.  The decomposition
    witnesses are searched when witness_plus or witness_minus is read,
    so a caller that only needs the verdict searches nothing."""

    finitely_generated: bool
    sigma_plus: Cone2 | None
    sigma_minus: Cone2 | None
    splits: tuple
    degenerate_side: bool
    lifting: tuple | None
    segment: SegmentData

    @property
    def witness_plus(self) -> tuple | None:
        return self.splits[0] and decomposition(*self.splits[0])

    @property
    def witness_minus(self) -> tuple | None:
        return self.splits[1] and decomposition(*self.splits[1])


def vertex_lifts(ctx: FlagContext, q) -> bool:
    """Does the breakpoint (1, q, d(q)) of the Newton-Okounkov body lift
    to the semigroup?

    Zero width at the top slope always lifts (clear denominators);
    otherwise the tangent cone at the v-minimal face must contain a
    lattice point pairing to +1 with the direction, and the one at the
    v-maximal face a point pairing to -1.  At an extremal edge the
    tangent cone is a halfplane containing the whole line <u, +-v> = 1,
    so the search says yes there."""
    t = theta(ctx, 1, q)
    if t.is_empty:
        raise ValueError("slope outside [0, q_hat]")
    v = ctx.flag.v
    if width(t, v) == 0:
        return True
    cone_minus, cone_plus = theta_extremal(ctx, 1, q)
    return exists_pairing_one(cone_minus, v) and exists_pairing_one(cone_plus, neg(v))


def decomposition(w, c: Cone2) -> tuple:
    """The witness (w', w'') of a decomposable verdict: the exhaustive
    search's lexicographically smallest split of w into two interior
    lattice points of c.  Called when a verdict's witness_plus or
    witness_minus is read, and for fg_for_all_divisors' failing cone."""
    witness = brute_decompose(w, c)
    if witness is None:
        raise ArithmeticError(
            "decomposability test and brute-force witness search disagree"
        )
    return witness


def lifting_table(ctx: FlagContext) -> tuple:
    body = newton_okounkov_body(ctx)
    return tuple((q, d, vertex_lifts(ctx, q)) for q, d in body.breakpoints)


def is_finitely_generated(ctx: FlagContext) -> FGVerdict:
    """Finitely generated iff v is not strongly decomposable in sigma_plus
    and -v is not strongly decomposable in sigma_minus.  The segment is
    read off the context's chord walk.

    The one decision point is ``degenerate``: the maximal cross-section
    sits at an extreme level, so a side cone of the segment is None.  The
    verdict then falls back to lifting every Newton-Okounkov breakpoint,
    and its record is fixed: both sigmas None, splits (None, None),
    degenerate_side True and the lifting table in lifting.  Otherwise
    lifting is None and the splits come from the two side cones."""
    v = ctx.flag.v
    seg = max_segment(ctx.chord_walk)
    degenerate = seg.sigma_plus is None or seg.sigma_minus is None
    table = lifting_table(ctx) if degenerate else None
    splits = (None, None) if degenerate else tuple(
        (w, c) if is_strongly_decomposable(w, c) else None
        for w, c in ((v, seg.sigma_plus), (neg(v), seg.sigma_minus))
    )
    return FGVerdict(
        finitely_generated=all(ok for _, _, ok in table) if degenerate else splits == (None, None),
        sigma_plus=None if degenerate else seg.sigma_plus,
        sigma_minus=None if degenerate else seg.sigma_minus,
        splits=splits,
        degenerate_side=degenerate,
        lifting=table,
        segment=seg,
    )


class FGAllResult(NamedTuple):
    holds: bool
    failing_cone: Cone2 | None
    failing_direction: tuple | None
    witness: tuple | None


def failing_cones(fan: Fan2, v):
    """Lazily yield (cone, w) for every cone spanned by a pair of
    rays in which w = v or w = -v is strongly decomposable, in ray-pair
    order.  Antiparallel pairs contribute the two halfplanes they bound."""
    v = int_vector(v)
    if not is_primitive(v):
        raise NonPrimitiveDirection(f"direction {v} is not primitive")
    for ri, rj in itertools.combinations(fan.rays, 2):
        if det(ri, v) == 0 or det(rj, v) == 0:
            continue  # +-v on a ray's line is interior to no cone of the pair
        for w in (v, neg(v)):
            c = cone(ri, rj, w)
            if c.strictly_contains(w) and is_strongly_decomposable(w, c):
                yield c, w


def fg_for_all_divisors(fan: Fan2, v) -> FGAllResult:
    """True iff neither v nor -v is strongly decomposable in any cone
    spanned by a pair of rays.  Returns the first failing cone, with its
    witness, otherwise."""
    for c, w in failing_cones(fan, v):
        return FGAllResult(False, c, w, decomposition(w, c))
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
    ampleness check at the end fails.  The floors need no check of their
    own: theta(1, 1) is cut out by <u, r> >= c'_r - a_r, so a_r below its
    floor puts a vertex of theta outside theta(1, 1), and the check that
    theta(1, 1) is still theta raises.
    A halfplane sigma on (g, -g) instead stretches the antiparallel edge
    pair of P_base, the polygon of b_r = sum_t max(0, det(r, t)), so that
    the maximal cross-section ends on both edge interiors and the
    verdict's sigma_plus is sigma itself.  The offsets b_r and
    w*|det(g, r)| are both nef, so P_D = P_base + w*[-e, e] with
    e = rot90(g): the faces with inner normals +-g are those of P_base
    stretched by w*e at both ends, and each one's range [lo, hi] of
    v-levels widens by w*|det(g, v)| on either side.  P_D lies between
    the two lines, so the longest chord orthogonal to v meets both, and
    its midpoint ends inside both edges iff the two ranges overlap in more
    than one level.  The weight is the least power of two w with
    2*w*|det(g, v)| > gap = max(lo+, lo-) - min(hi+, hi-).  Either way
    one verdict of the result confirms that it fails finite generation;
    that verdict searches no witness."""
    v = int_vector(v)
    if sigma.kind == "ray":
        raise ValueError("sigma must be a two-dimensional cone or a halfplane")
    for g in sigma.generators:
        if g not in fan.rays:
            raise ValueError(f"cone generator {g} is not a ray of the fan")
    if not is_strongly_decomposable(v, sigma):
        raise ValueError("direction is not strongly decomposable in sigma")
    if sigma.kind == "halfplane":
        return _construct_bad_halfplane(fan, sigma, v)
    flag = flag_data(fan, v)
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
    return max([1] + [math.floor(-theta_inf.support_min(r)) + 1 for r in interior])


def _check_tangent(theta0: RatPolygon, sigma: Cone2, v):
    if theta0.is_empty or width(theta0, v) == 0:
        raise ConstructionFailed("model polytope is empty or has width 0 along v")
    tangent = tangent_cone(theta0, v)
    if tangent.kind == "halfplane":
        raise ConstructionFailed("v-minimal face of the model polytope is not a vertex")
    if tangent != dual_cone(sigma):
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
    """P_base stretched along its antiparallel edge pair by the least power
    of two that makes the v-level ranges of the two edges overlap in more
    than one level (see construct_bad_divisor)."""
    g = sigma.generators[0]
    base = {r: sum(max(0, det(r, t)) for t in fan.rays) for r in fan.rays}
    p_base = RatPolygon.from_halfplanes([(r, -b) for r, b in base.items()])
    levels = [[dot(p, v) for p in p_base.face(n)] for n in (g, neg(g))]
    gap = max(map(min, levels)) - min(map(max, levels))
    weight = 1 << max(0, math.floor(gap / (2 * abs(det(g, v))))).bit_length()
    divisor = ToricDivisor.make(fan, {r: base[r] + weight * abs(det(g, r)) for r in fan.rays})
    ctx = make_context(divisor, v)
    verdict = is_finitely_generated(ctx)
    if verdict.finitely_generated or verdict.degenerate_side or verdict.sigma_plus != sigma:
        raise ConstructionFailed("edge stretching did not produce the halfplane cones")
    return BadDivisorConstruction(divisor, divisor, divisor, theta(ctx, 1, 1), ctx.p_d)


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
