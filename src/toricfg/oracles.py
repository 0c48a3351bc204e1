"""Exhaustive searches: the section recount, the decomposition witness
search, and the lambda search of analyze.

``brute_e_bar`` recounts e_bar column by column, each ray halfplane
bounding a column by one floor division, and collects every point's
level in a set, sharing no counting code with ``semigroup.e_bar``,
so that the tests and the benchmark's checks can compare the two.
``brute_decompose`` is on the production witness path:
``criterion.decomposition`` calls it for the witness of a decomposable
side when a verdict's ``witness_plus`` or ``witness_minus`` is read (so
only where a command prints one), and raises when it finds none.
``lift_search`` is analyze's production lambda search: it counts the
levels of each dilate's lattice points by floor sums with the geometry
kernel ``level_count``, and ``tests/util.projection_lift_search``, which
projects every point, is its oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cones import Cone2, NotInInterior
from .geometry import (
    RatPolygon,
    dot,
    det,
    int_vector,
    lattice_points,
    level_count,
    neg,
    rot90,
    solve_pairing_one,
)
from .semigroup import theta


def brute_decompose(w, c: Cone2):
    """Exhaustive search for w = w' + w'' with both parts interior lattice
    points of c; returns the lexicographically smallest witness or None.

    For pointed cones the candidates fill the bounded region
    c intersect (w - c), read in lexicographic order as ``lattice_points``
    yields them, column by column, so the search builds only the columns
    and points up to the first witness; for a halfplane the witness (when
    the boundary distance allows one) is taken on the first interior
    lattice line, as close to w/2 as possible.
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
        cands = [(target[0] + tt * g[0], target[1] + tt * g[1]) for tt in (math.floor(t), math.ceil(t))]
        wp = min(cands, key=lambda p: ((2 * p[0] - w[0]) ** 2 + (2 * p[1] - w[1]) ** 2, p))
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
    the colon polytope, column by column: at each integer x of l*P_D's
    x-range every ray halfplane bounds y by one int floor division, and
    each point of the column adds its level to a set.  Shares no counting
    code with the fast version."""
    # <(x, y), n> is an int, so it is >= o exactly when it is >= ceil(o)
    halfplanes = [
        (r, math.ceil(-l * a + k * c))
        for r, a, c in zip(ctx.divisor.fan.rays, ctx.divisor.coeffs, ctx.flag.cprime_coeffs)
    ]
    xs = [x for x, _ in ctx.p_d.vertices]
    a, b = ctx.flag.v
    seen = set()
    for x in range(math.ceil(l * min(xs)), math.floor(l * max(xs)) + 1):
        # n0*x + n1*y >= o; a complete fan has rays with n1 > 0 and n1 < 0
        lo = max(-((n0 * x - o) // n1) for (n0, n1), o in halfplanes if n1 > 0)
        hi = min((n0 * x - o) // -n1 for (n0, n1), o in halfplanes if n1 < 0)
        if all(n0 * x >= o for (n0, n1), o in halfplanes if n1 == 0):
            seen.update(a * x + b * y for y in range(lo, hi + 1))
    return len(seen)


# the largest dilation lift_search tries unless told otherwise
LAMBDA_MAX = 60


def lift_search(ctx, q, lambda_max: int = LAMBDA_MAX):
    """Smallest lambda <= lambda_max such that the lambda-fold dilation of
    the colon polytope at slope q projects onto a lattice interval with no
    gaps; None when no such lambda exists in range.

    A dilate whose extreme levels <p, v> are integers lo and hi is gapless
    when its lattice points take hi - lo + 1 distinct levels, which
    ``level_count`` counts by floor sums in O(n log size) steps, so a
    dilate costs the same however wide it is and no point or column is
    read.  With the extreme levels of the base polygon at lo / L and
    hi / L (L its scale), those of the lambda-dilate are integers exactly
    when lambda is a multiple of L / gcd(L, lo) and of L / gcd(L, hi), so
    only those dilates are built.  ``tests/util.projection_lift_search``
    is its oracle."""
    base = theta(ctx, 1, q)
    if base.is_empty:
        raise ValueError("colon polytope is empty at this slope")
    v = ctx.flag.v
    levels, scale = base._levels(v), base.scale
    lo, hi = min(levels), max(levels)
    step = math.lcm(scale // math.gcd(scale, lo), scale // math.gcd(scale, hi))
    for lam in range(step, lambda_max + 1, step):
        if level_count(lattice_points(base.dilate(lam)), v) == lam * (hi - lo) // scale + 1:
            return lam
    return None
