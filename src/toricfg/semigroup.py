"""The valuation-semigroup layer: colon polytopes of an ample divisor
against the flag's nef segment polytope, section counts by level, semigroup
slices, tangent cones at the extremal faces of a colon polytope, and the
Newton-Okounkov body in (q, t)-coordinates.

All (l, k) arguments may be rational; integral callers are unaffected and
the normalized polytope at slope q is just the (1, q) case.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .cones import Cone2, cone, halfplane
from .fans import FlagData, Fan2, ToricDivisor, ample_polytope, divisor_polytope, flag_data
from .geometry import (
    ChordWalk,
    RatPolygon,
    dot,
    floor_frac,
    lattice_points,
    level_count,
    meet,
    neg,
    rational,
    vsub,
    width,
)


class NotAmple(ValueError):
    """The semigroup layer is defined for ample divisors."""


class DegenerateTheta(ValueError):
    """The colon polytope is empty where a construction needs a point."""


class _ContextFields(NamedTuple):
    divisor: ToricDivisor
    flag: FlagData
    p_d: RatPolygon


class FlagContext(_ContextFields):
    """What the criterion reads of (D, v): the divisor, the flag data of
    the direction and P_D.  Callers that have already validated D and v
    build it directly from the polygons they hold; make_context builds it
    from scratch.  Widths are computed where a formula needs them
    (d_of_q at slope 0), so the record holds nothing derived but the
    cached q_hat, kept in the instance dict that this class has over its
    named-tuple base."""

    @property
    def fan(self) -> Fan2:
        return self.divisor.fan

    @cached_property
    def q_hat(self) -> Fraction:
        """Largest slope with a non-empty colon polytope: the longest chord
        of P_D orthogonal to v, in m-units.  nabla' and nabla have the same
        support value at every ray, and P_D is cut out by halfplanes with
        ray normals, so a translate of q*nabla' fits in P_D iff one of
        q*nabla does, that is iff P_D has a chord of m-length q."""
        return ChordWalk(self.p_d, self.flag.v).length


def make_context(divisor: ToricDivisor, v, require_ample: bool = True) -> FlagContext:
    """FlagContext(divisor, flag_data(fan, v), P_D), with P_D built once
    and the ampleness test read off that same polygon.

    NotAmple (a divisor that is not nef or not ample) comes before
    NonPrimitiveDirection.  require_ample=False skips the edge test and
    serves callers that test ampleness once for many directions:
    scan_directions, where a test per direction raised the median of
    scan_directions(sym16gon, 20) from 0.298 s to 0.308 s (21 runs each,
    CPython 3.11.7, 2 cores), and the scan checks of the benchmark.
    """
    p_d = ample_polytope(divisor) if require_ample else divisor_polytope(divisor)
    if p_d is None:
        raise NotAmple("divisor is not ample")
    return FlagContext(divisor, flag_data(divisor.fan, v), p_d)


def theta(ctx: FlagContext, l, k) -> RatPolygon:
    """The colon polytope (l*P_D : k*nabla'), directly from the fan's
    halfplane data; rational l, k are allowed."""
    l, k = rational(l), rational(k)
    if l < 0 or k < 0 or (l == 0 and k == 0):
        raise ValueError("need l, k >= 0 and not both zero")
    return RatPolygon.from_halfplanes(
        [
            (r, -l * a + k * c)
            for r, a, c in zip(ctx.fan.rays, ctx.divisor.coeffs, ctx.flag.cprime_coeffs)
        ]
    )


def e_bar(ctx: FlagContext, l: int, k: int) -> int:
    """Number of distinct pairings <u, v> over lattice points of the colon
    polytope; the dimension of the restricted section space.  Counted by
    ``level_count`` with floor sums over the polygon's chords orthogonal
    to v, in O(n log size) steps, so no point or column is read."""
    return level_count(lattice_points(theta(ctx, l, k)), ctx.flag.v)


def d_of_q(ctx: FlagContext, q):
    """Width of the slope-q colon polytope; None when it is empty."""
    q = rational(q)
    if q < 0:
        raise ValueError("slope must be nonnegative")
    if q == 0:
        return width(ctx.p_d, ctx.flag.v)
    return width(theta(ctx, 1, q), ctx.flag.v)


def q_hat(ctx: FlagContext) -> Fraction:
    """Largest slope with a non-empty colon polytope (FlagContext.q_hat,
    computed once per context)."""
    return ctx.q_hat


class SemigroupSlice(NamedTuple):
    """All semigroup data at a fixed level l: the pairs (k, e_bar(l, k))
    for every k in 0..floor(l * q_hat), encoding the triples (l, k, delta)
    for 0 <= delta <= e_bar - 1.  e_bar may be 0 (a non-empty colon
    polytope without lattice points), which only rational divisors
    produce."""

    level: int
    entries: tuple

    def triples(self):
        for k, e in self.entries:
            for delta in range(e):
                yield (self.level, k, delta)


def semigroup_slice(ctx: FlagContext, l: int) -> SemigroupSlice:
    if l < 1:
        raise ValueError("level must be at least 1")
    kmax = floor_frac(Fraction(l) * q_hat(ctx))
    return SemigroupSlice(l, tuple((k, e_bar(ctx, l, k)) for k in range(kmax + 1)))


def theta_extremal(ctx: FlagContext, l, k) -> tuple:
    """(cone_minus, cone_plus): the tangent cones of the colon polytope at
    its v-minimal and v-maximal faces, strongly convex at a vertex and a
    halfplane along an edge.  DegenerateTheta when the polytope is empty
    or has width 0 (a point, or a segment on one level), where there is
    no tangent data."""
    t = theta(ctx, l, k)
    v = ctx.flag.v
    if t.is_empty or width(t, v) == 0:
        raise DegenerateTheta("no extremal data for an empty or zero-width colon polytope")
    return tangent_cone(t, t.face(v)), tangent_cone(t, t.face(neg(v)))


def tangent_cone(t: RatPolygon, face) -> Cone2:
    """The tangent cone of t at a face given by its vertices: the cone
    spanned by the edge directions at a vertex, the halfplane on t's side
    of an edge."""
    if len(face) > 1:
        other = next(p for p in t.vertices if p not in face)
        return halfplane(vsub(face[1], face[0]), vsub(other, face[0]))
    return cone(*t.vertex_directions(face[0]))


class NOBody(NamedTuple):
    """Newton-Okounkov polygon in (q, t)-coordinates: q is the slope k/l,
    t the normalized vanishing order at the flag point.  The region is
    exactly {(q, t) : 0 <= t <= d(q)} and breakpoints lists the vertices
    along the graph of d."""

    polygon: RatPolygon
    breakpoints: tuple

    @property
    def vertices(self):
        return self.polygon.vertices


def newton_okounkov_body(ctx: FlagContext) -> NOBody:
    """Exact body under the concave roof d(q) on [0, q_hat].

    The roof is piecewise linear with kinks only where the active
    constraint combinatorics of the parametric colon polytope changes, so
    it suffices to evaluate d at every slope where three constraints meet
    (plus the endpoints) and take the convex hull.
    """
    qh = q_hat(ctx)
    rays = ctx.fan.rays
    offs = [(-a, c) for a, c in zip(ctx.divisor.coeffs, ctx.flag.cprime_coeffs)]
    candidates = {Fraction(0), qh}
    n = len(rays)
    for i in range(n):
        ni = rays[i]
        for j in range(i + 1, n):
            nj = rays[j]
            u0 = meet(ni, offs[i][0], nj, offs[j][0])
            if u0 is None:
                continue
            u1 = meet(ni, offs[i][1], nj, offs[j][1])
            d = u0[2]  # the same for both meets; it cancels in alpha/beta
            for k in range(n):
                if k in (i, j):
                    continue
                alpha = dot(u0, rays[k]) - offs[k][0] * d
                beta = dot(u1, rays[k]) - offs[k][1] * d
                if beta == 0:
                    continue
                q0 = Fraction(-alpha, beta)
                if 0 <= q0 <= qh:
                    candidates.add(q0)
    graph = [(q, d_of_q(ctx, q)) for q in sorted(candidates)]
    poly = RatPolygon.from_vertices([(Fraction(0), Fraction(0)), (qh, Fraction(0))] + graph)
    breakpoints = tuple(
        sorted(p for p in poly.vertices if p[1] == d_of_q(ctx, p[0]))
    )
    return NOBody(poly, breakpoints)
