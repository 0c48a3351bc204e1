"""Statements of the paper that the tests check against the engine.

Each function rebuilds an object by the construction the paper states
for it, or evaluates a bound the paper proves, so that a test can compare
it with what toricfg computes on the way to a verdict.  The general
polygon algebra of those statements (the Newton segment, colon polygons,
Minkowski sums, containment) is here too, as the tests' oracles: the
engine cuts every colon polytope out of the fan's halfplanes
(``semigroup.theta``).  No command, script or benchmark calls them, so
they live with the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from toricfg.fans import FlagData
from toricfg.geometry import (
    DegeneratePolygon,
    RatPolygon,
    det,
    neg,
    primitivize,
    rational,
    vsub,
    width,
)
from toricfg.semigroup import DegenerateTheta, FlagContext, semigroup_slice, theta
from util import polygon_contains


def newton_segment(flag: FlagData) -> RatPolygon:
    """nabla = conv(0, m), the Newton segment of the binomial cutting out
    the flag curve in the torus."""
    return RatPolygon.from_vertices([(0, 0), flag.m])


def colon(p: RatPolygon, q: RatPolygon) -> RatPolygon:
    """The colon polygon {u : u + q subset of p}: each halfplane of p
    moved in by the support of q in its normal direction.  May be empty."""
    if p.is_empty or q.is_empty:
        raise ValueError("colon needs non-empty polygons")
    return RatPolygon.from_halfplanes([(n, o - q.support_min(n)) for n, o in p.halfplanes])


def minkowski_sum(p: RatPolygon, q: RatPolygon) -> RatPolygon:
    """p + q as the hull of the pairwise vertex sums."""
    if p.is_empty or q.is_empty:
        raise ValueError("minkowski_sum needs non-empty polygons")
    return RatPolygon.from_vertices(
        [(a[0] + b[0], a[1] + b[1]) for a in p.vertices for b in q.vertices]
    )


def contains_polygon(p: RatPolygon, q: RatPolygon) -> bool:
    """Is q a subset of p?  Every vertex of q in p."""
    return all(polygon_contains(p, u) for u in q.vertices)


def glued_nef_polytope(p_d: RatPolygon, flag: FlagData) -> RatPolygon:
    """Rebuild nabla_prime by the gluing construction: translate the
    Newton segment into the vertex cone at each v-extremal vertex of P_D
    until it hits both rays, then glue the two resulting triangles along
    the segment.

    Statement checked: the nef polytope of the torus-invariant
    replacement C' of the flag curve is the union of these two triangles
    (a side collapses onto the Newton segment where P_D has an extremal
    edge), so it equals the halfplane description flag.nabla_prime."""
    if p_d.dim != 2:
        raise DegeneratePolygon("gluing needs a two-dimensional polytope")
    m = flag.m
    points = [(Fraction(0), Fraction(0)), (Fraction(m[0]), Fraction(m[1]))]
    for direction in (neg(flag.v), flag.v):
        face = p_d.face(direction)
        if len(face) != 1:
            continue  # extremal edge: this side degenerates onto nabla
        verts = p_d.vertices
        i = verts.index(face[0])
        # primitive directions along the edges before and after the vertex
        d1, d2 = (primitivize(vsub(verts[j], face[0])) for j in (i - 1, (i + 1) % len(verts)))
        dd = det(d1, d2)
        # t*d2 - s*d1 = m  (base corner on the d1-ray goes to the origin)
        s = Fraction(-det(m, d2), dd)
        t = Fraction(-det(m, d1), dd)
        if s >= 0 and t >= 0:
            points.append((-s * d1[0], -s * d1[1]))
            continue
        # t*d2 - s*d1 = -m  (base corner on the d2-ray goes to the origin)
        s, t = -s, -t
        if s >= 0 and t >= 0:
            points.append((m[0] - s * d1[0], m[1] - s * d1[1]))
        else:
            raise ValueError("Newton segment does not fit into the vertex cone")
    return RatPolygon.from_vertices(points)


def d_bar(ctx: FlagContext, l, k) -> Fraction:
    """l * wid_v(P_D) - k * wid_v(nabla'): the degree of the pulled-back
    line bundle on the normalized flag curve.

    Statement checked: the sandwich e_bar(l, k) - 1 <= wid_v(theta(l, k))
    <= d_bar(l, k) for every non-empty colon polytope with lattice
    points."""
    v = ctx.flag.v
    return rational(l) * width(ctx.p_d, v) - rational(k) * width(ctx.flag.nabla_prime, v)


def xi_interval(ctx: FlagContext, l, k):
    """One-dimensional colon of the projected intervals
    (l*[min, max]<P_D, v> : k*[min, max]<nabla', v>); None when empty.

    Statement checked: the projection of theta(l, k) to the v-axis lies
    in this interval, possibly strictly."""
    v = ctx.flag.v
    p, q = ctx.p_d, ctx.flag.nabla_prime
    l, k = rational(l), rational(k)
    lo = l * p.support_min(v) - k * q.support_min(v)
    hi = l * p.support_max(v) - k * q.support_max(v)
    if lo > hi:
        return None
    return (lo, hi)


class CutPieces(NamedTuple):
    box_max: RatPolygon
    p_cut: RatPolygon
    box_min: RatPolygon
    v_plus: tuple
    v_minus: tuple


def cut_construction(ctx: FlagContext, l, k) -> CutPieces:
    """Cut l*P_D along the two translated Newton segments at the extreme
    pairing levels of the colon polytope.

    Statement checked: the middle piece equals the Minkowski sum
    theta(l, k) + k*nabla of the colon polytope with the scaled Newton
    segment; ArithmeticError when it does not."""
    l, k = rational(l), rational(k)
    t = theta(ctx, l, k)
    if t.is_empty:
        raise DegenerateTheta("cut needs a non-empty colon polytope")
    v = ctx.flag.v
    big = ctx.p_d.dilate(l)
    lo, hi = t.support_min(v), t.support_max(v)
    band = RatPolygon.from_halfplanes(
        list(big.halfplanes) + [(v, lo), (neg(v), -hi)]
    )
    box_max = RatPolygon.from_halfplanes(list(big.halfplanes) + [(v, hi)])
    box_min = RatPolygon.from_halfplanes(list(big.halfplanes) + [(neg(v), -lo)])
    summed = minkowski_sum(t, newton_segment(ctx.flag).dilate(k)) if k > 0 else t
    if summed != band:
        raise ArithmeticError("cut identity failed: theta + k*nabla != middle piece")
    return CutPieces(box_max, band, box_min, min(t.face(neg(v))), min(t.face(v)))


def generator_profile(ctx: FlagContext, L: int) -> list:
    """[G(1), ..., G(L)]: the number of new minimal generators of the
    valuation semigroup at each level l.

    The semigroup is {(l, k, delta) : 0 <= delta < e(l, k)}, e = e_bar.
    An element at (l1, k1) plus one at (l2, k2) gives every delta in
    [0, e1 + e2 - 2], so the new minimal generators at (l, k) number
    max(0, e(l, k) - 1 - M(l, k)), where M is the largest e1 + e2 - 2
    over the splits of (l, k) with both parts non-empty (-1 with none),
    and G(l) sums them over k.  Given the e table (``semigroup_slice``)
    this takes O(L^3 q_hat^2) int steps.

    Statement checked: by definition, the semigroup is finitely generated
    iff G(l) = 0 for every l past some level."""
    # only the (l, k) that hold an element: a split needs one on each side
    e = [{}] + [{k: n for k, n in semigroup_slice(ctx, l).entries if n} for l in range(1, L + 1)]
    profile = []
    for l in range(1, L + 1):
        best = {}  # k -> the largest e1 + e2 over the splits of (l, k)
        for a in range(1, l // 2 + 1):
            for i, e1 in e[a].items():
                for j, e2 in e[l - a].items():
                    if best.get(i + j, 0) < e1 + e2:
                        best[i + j] = e1 + e2
        profile.append(sum(max(0, ek + 1 - best.get(k, 1)) for k, ek in e[l].items()))
    return profile


def vanishing_orders(support, c) -> set:
    """Orders of vanishing at t = c achieved by nonzero Laurent polynomials
    with exponent support ``support``.

    Order k is achieved iff some coefficient vector kills the first k
    derivative rows at c but not the k-th; equivalently, iff appending the
    k-th falling-factorial row raises the rank.  Exact rational linear
    algebra, row by row.

    Statement checked: for a support of e exponents and a point c != 0
    of the torus, the achieved orders are exactly 0, ..., e - 1, whatever
    the point."""
    z = sorted(set(int(p) for p in support))
    if not z:
        raise ValueError("empty support")
    c = Fraction(rational(c))
    if c == 0:
        raise ValueError("vanishing order at 0 is read off the support directly")
    e = len(z)
    rows = []
    achieved = set()
    rank = 0
    for k in range(e):
        rows.append([_falling(p, k) * c ** (p - k) for p in z])
        new_rank = _rank(rows)
        if new_rank > rank:
            achieved.add(k)
        rank = new_rank
    return achieved


def _falling(p: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= p - i
    return out


def _rank(rows) -> int:
    m = [list(r) for r in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    col = 0
    for col in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, n_rows):
            if m[r][col] != 0:
                f = m[r][col] / pv
                for cc in range(col, n_cols):
                    m[r][cc] -= f * m[rank][cc]
        rank += 1
        if rank == n_rows:
            break
    return rank
