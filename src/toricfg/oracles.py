"""Independent brute-force validators.

Everything here recomputes a quantity by the most naive correct method
available (exhaustive enumeration, dense linear algebra) so the fast paths
elsewhere can be checked against it.  None of these share the code paths
they validate.
"""

from __future__ import annotations

from fractions import Fraction

from .cones import Cone2, NotInInterior
from .geometry import (
    RatPolygon,
    ceil_frac,
    dot,
    det,
    floor_frac,
    int_vector,
    lattice_points,
    neg,
    rot90,
    solve_pairing_one,
)
from .semigroup import theta


def vanishing_orders(support, c) -> set:
    """Orders of vanishing at t = c achieved by nonzero Laurent polynomials
    with exponent support ``support``.

    Order k is achieved iff some coefficient vector kills the first k
    derivative rows at c but not the k-th; equivalently, iff appending the
    k-th falling-factorial row raises the rank.  Exact rational linear
    algebra, row by row.
    """
    z = sorted(set(int(p) for p in support))
    if not z:
        raise ValueError("empty support")
    c = Fraction(c)
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


def brute_decompose(w, c: Cone2):
    """Exhaustive search for w = w' + w'' with both parts interior lattice
    points of c; returns the lexicographically smallest witness or None.

    For pointed cones the candidates fill the bounded region
    c intersect (w - c); for a halfplane the witness (when the boundary
    distance allows one) is taken on the first interior lattice line,
    as close to w/2 as possible.
    """
    w = int_vector(w)
    if not c.strictly_contains(w):
        raise NotInInterior(f"{w} is not interior to the cone")
    if c.kind == "halfplane":
        g = c.generators[0]
        if det(g, w) <= 1:
            return None
        target = solve_pairing_one(rot90(g))  # det(g, target) == 1
        # slide along the boundary direction to sit nearest w/2
        t = Fraction(dot(g, w) - 2 * dot(g, target), 2 * dot(g, g))
        best = None
        for tt in (floor_frac(t), ceil_frac(t)):
            cand = (target[0] + tt * g[0], target[1] + tt * g[1])
            d2 = (2 * cand[0] - w[0]) ** 2 + (2 * cand[1] - w[1]) ** 2
            key = (d2, cand)
            if best is None or key < best:
                best = key
        wp = best[1]
        return (wp, (w[0] - wp[0], w[1] - wp[1]))
    g1, g2 = c.generators
    region = RatPolygon.from_halfplanes([
        (rot90(g1), 0),
        (neg(rot90(g2)), 0),
        (neg(rot90(g1)), -det(g1, w)),
        (rot90(g2), det(g2, w)),
    ])
    for p in lattice_points(region):
        q = (w[0] - p[0], w[1] - p[1])
        if c.strictly_contains(p) and c.strictly_contains(q):
            return (p, q)
    return None


def brute_e_bar(ctx, l, k) -> int:
    """Recount of the number of distinct projections of lattice points of
    the colon polytope: bounding-box enumeration plus direct halfplane
    membership.  Shares no counting code with the fast version."""
    halfplanes = [
        (r, -l * a + k * c)
        for r, a, c in zip(ctx.fan.rays, ctx.divisor.coeffs, ctx.flag.cprime_coeffs)
    ]
    xs = [x for x, _ in ctx.p_d.vertices]
    ys = [y for _, y in ctx.p_d.vertices]
    seen = set()
    lf = Fraction(l)
    for x in range(ceil_frac(lf * min(xs)), floor_frac(lf * max(xs)) + 1):
        for y in range(ceil_frac(lf * min(ys)), floor_frac(lf * max(ys)) + 1):
            if all(x * n[0] + y * n[1] >= o for n, o in halfplanes):
                seen.add(dot((x, y), ctx.flag.v))
    return len(seen)


# the largest dilation lift_search tries unless told otherwise
LAMBDA_MAX = 60


def lift_search(ctx, q, lambda_max: int = LAMBDA_MAX):
    """Smallest lambda <= lambda_max such that the lambda-fold dilation of
    the colon polytope at slope q projects onto a lattice interval with no
    gaps; None when no such lambda exists in range."""
    q = Fraction(q)
    base = theta(ctx, 1, q)
    if base.is_empty:
        raise ValueError("colon polytope is empty at this slope")
    v = ctx.flag.v
    for lam in range(1, lambda_max + 1):
        poly = base.dilate(lam)
        lo, hi = poly.support_min(v), poly.support_max(v)
        if lo.denominator != 1 or hi.denominator != 1:
            continue
        values = {dot(u, v) for u in lattice_points(poly)}
        if all(t in values for t in range(int(lo), int(hi) + 1)):
            return lam
    return None
