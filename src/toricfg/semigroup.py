"""The valuation-semigroup layer: colon polytopes of an ample divisor
against the flag's nef segment polytope, section counts by level, semigroup
slices, tangent cones at the extremal faces of a colon polytope (read
on its int ring, like every kernel of ``geometry``), and the
Newton-Okounkov body in (q, t)-coordinates.

A colon polytope keeps its edges on each chamber, the open slopes between
two walls where an end of its interval of levels passes a vertex level of
P_D, so each context keeps a chamber table: ``theta`` learns a chamber's
edges from the first cell it reads there and takes every later cell as
the meets of those lines, without a halfplane walk.

All (l, k) arguments may be rational; integral callers are unaffected and
the normalized polytope at slope q is just the (1, q) case.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .cones import Cone2, cone, halfplane
from .fans import FlagData, ToricDivisor, ample_polytope, divisor_polytope, flag_data
from .geometry import (
    ChordWalk,
    RatPolygon,
    det,
    lattice_points,
    level_count,
    neg,
    over_common_denominator,
    polygon_of_meets,
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
    (d_of_q at slope 0), so the record holds nothing derived but what is
    read of P_D's chord walk (q_hat and the walls of the colon polygons)
    and the chamber table that ``theta`` fills, kept in the instance dict
    that this class has over its named-tuple base."""

    @cached_property
    def chord_walk(self) -> ChordWalk:
        """The chords of P_D orthogonal to v, walked once per context; they
        give q_hat and the kinks of the Newton-Okounkov body."""
        return ChordWalk(self.p_d, self.flag.v)

    @cached_property
    def q_hat(self) -> Fraction:
        """Largest slope with a non-empty colon polytope: the longest chord
        of P_D orthogonal to v, in m-units.  nabla' and nabla have the same
        support value at every ray, and P_D is cut out by halfplanes with
        ray normals, so a translate of q*nabla' fits in P_D iff one of
        q*nabla does, that is iff P_D has a chord of m-length q."""
        return self.chord_walk.length

    @cached_property
    def walls(self) -> tuple:
        """(den, walls): the slopes q at which the colon polygon theta(1, q)
        can change its edges, times den, as sorted distinct ints.  They are
        0 and the chord length of P_D orthogonal to v at each of its
        vertex levels, q_hat the largest (see ``theta``)."""
        den, lengths = self.chord_walk.int_lengths()
        return den, tuple(sorted({0, *lengths}))

    @cached_property
    def chambers(self) -> dict:
        """The chamber table: j maps the open slopes between walls j - 1
        and j to the edges of the colon polygons there, once ``theta`` has
        learnt them from the first cell it read in the chamber."""
        return {}


def make_context(divisor: ToricDivisor, v, require_ample: bool = True) -> FlagContext:
    """FlagContext(divisor, flag_data(fan, v), P_D), with P_D built once
    and the ampleness test read off that same polygon.

    NotAmple (a divisor that is not nef or not ample) comes before
    NonPrimitiveDirection.  require_ample=False skips the edge test and
    serves callers that test ampleness once for many directions:
    scan_directions and the scan checks of the benchmark.
    """
    p_d = ample_polytope(divisor) if require_ample else divisor_polytope(divisor)
    if p_d is None:
        raise NotAmple("divisor is not ample")
    return FlagContext(divisor, flag_data(divisor.fan, v), p_d)


def theta(ctx: FlagContext, l, k) -> RatPolygon:
    """The colon polytope (l*P_D : k*nabla'), cut out by the halfplanes
    <u, r> >= -l*a_r + k*c'_r over the rays r; rational l, k are allowed.

    theta(l, k) is l*theta(1, q) at the slope q = k/l, and theta(1, q) is
    P_D intersected with P_D - q*m (see ``FlagContext.q_hat``): between
    the levels where P_D's chord is at least q long, the lower chain of
    P_D and the upper chain moved by -q*m.  Its edges change only where an
    end of that interval of levels passes a vertex level, that is at the
    walls of ``FlagContext.walls``.  So on a chamber, the open slopes
    between two walls, every colon polygon has the same edges on the same
    ray lines, and each vertex is the meet of two consecutive ones.

    The first cell read in a chamber goes through the halfplane kernel
    ``RatPolygon.from_halfplanes``, and the normals of its ring edges
    name the chamber's rays in ring order.  Every later cell there takes
    the homogeneous meets of those lines with its own offsets, scaled to
    ints by their common denominator when rational, into the stored form
    of ``polygon_of_meets``, which the kernel ends with too: no walk.
    Cells on a wall, at l = 0 or past q_hat go through the kernel.
    """
    l, k = rational(l), rational(k)
    if l < 0 or k < 0 or (l == 0 and k == 0):
        raise ValueError("need l, k >= 0 and not both zero")
    chamber = None
    if l:
        # q times den is f plus rem over the denominator of q
        den, walls = ctx.walls
        f, rem = divmod(k.numerator * l.denominator * den, l.numerator * k.denominator)
        if rem or f not in walls:
            chamber = bisect_right(walls, f)
    edges = ctx.chambers.get(chamber)
    if edges is None:
        t = RatPolygon.from_halfplanes(
            [
                (r, -l * a + k * c)
                for r, a, c in zip(ctx.divisor.fan.rays, ctx.divisor.coeffs, ctx.flag.cprime_coeffs)
            ]
        )
        # past q_hat, in chamber len(walls), the cell is empty and names no edge
        if chamber is not None and t.dim == 2:
            ctx.chambers[chamber] = _chamber_edges(ctx, t)
        return t
    coeffs, meets = edges
    offsets = [k * c - l * a for a, c in coeffs]
    scale = 1
    if any(type(o) is not int for o in offsets):
        scale, offsets = over_common_denominator(offsets)
    # edge i runs from the meet of edges i - 1 and i (see geometry.meet)
    return polygon_of_meets(
        [(p * b - o * y, x * o - a * p, d)
         for (x, y, a, b, d), p, o in zip(meets, offsets[-1:] + offsets[:-1], offsets)],
        scale,
    )


def _chamber_edges(ctx: FlagContext, t: RatPolygon) -> tuple:
    """The edges of the two-dimensional colon polygon t, in ring order,
    as ``theta`` reads them for every cell of t's chamber: the
    coefficients (a_r, c'_r) of each edge's ray r, and for each vertex
    the rays of the edges that meet there, before and after it, with
    their determinant."""
    rays = ctx.divisor.fan.rays
    index = {r: i for i, r in enumerate(rays)}
    kept = [index[n] for n, _ in t.lines]
    coeffs = tuple((ctx.divisor.coeffs[i], ctx.flag.cprime_coeffs[i]) for i in kept)
    meets = tuple((*rays[h], *rays[i], det(rays[h], rays[i])) for h, i in zip(kept[-1:] + kept[:-1], kept))
    return coeffs, meets


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
    kmax = math.floor(l * q_hat(ctx))
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
    return tangent_cone(t, v), tangent_cone(t, neg(v))


def tangent_cone(t: RatPolygon, v) -> Cone2:
    """The tangent cone of t at its face minimising <p, v>, read on the
    int ring: at a vertex p the cone on before - p and after - p, its
    neighbours on the ring (a ray at the end of a segment); along an edge
    the halfplane bounded by the edge on the side of the vertex after
    it, for the edge from the last ring vertex to the first as well.  t
    must have positive width along v: a point or a segment on one level
    raises ValueError."""
    ring, levels = t.ring, t._levels(v)
    i = levels.index(min(levels))
    if levels[i - 1] == levels[i]:
        i -= 1  # the edge that closes the ring
    p, after = ring[i], ring[(i + 1) % len(ring)]
    if levels[(i + 1) % len(ring)] == levels[i]:
        return halfplane(vsub(after, p), vsub(ring[(i + 2) % len(ring)], p))
    return cone(vsub(ring[i - 1], p), vsub(after, p))


class NOBody(NamedTuple):
    """Newton-Okounkov polygon in (q, t)-coordinates: q is the slope k/l,
    t the normalized vanishing order at the flag point.  The region is
    exactly {(q, t) : 0 <= t <= d(q)} and breakpoints lists the vertices
    along the graph of d."""

    polygon: RatPolygon
    breakpoints: tuple


def newton_okounkov_body(ctx: FlagContext) -> NOBody:
    """Exact body under the concave roof d(q) on [0, q_hat].

    The colon polytope at slope q is P_D intersected with P_D - q*m (see
    ``FlagContext.q_hat``), so d(q) is the length of the interval of
    levels whose chord of P_D is at least q long.  The chord length is
    concave and affine between vertex levels, so each end of that
    interval is affine in q between the chord lengths at vertex levels,
    and d kinks only there.  The body is the hull of d evaluated at those
    lengths and 0, the walls of ``FlagContext.walls``; q_hat is the last.
    """
    qh = q_hat(ctx)
    den, walls = ctx.walls
    graph = [(q, d_of_q(ctx, q)) for q in (Fraction(w, den) for w in walls)]
    poly = RatPolygon.from_vertices([(Fraction(0), Fraction(0)), (qh, Fraction(0))] + graph)
    breakpoints = tuple(
        sorted(p for p in poly.vertices if p[1] == d_of_q(ctx, p[0]))
    )
    return NOBody(poly, breakpoints)
