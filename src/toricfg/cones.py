"""Rational cones in a rank-2 lattice: duals, Hilbert bases, the
strong-decomposability test, and exact search for lattice points with a
prescribed pairing value.

A cone knows which lattice it lives in ("M" or "N"); dualizing swaps the
tag.  Halfplanes are supported because maximal-cross-section cones of
polygons with parallel edges degenerate to halfplanes.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .geometry import (
    ceil_frac,
    det,
    dot,
    floor_frac,
    int_vector,
    line_interval,
    neg,
    primitivize,
    rot90,
    solve_pairing_one,
)


class NotPointed(ValueError):
    """Hilbert bases exist only for pointed cones (rays and 2D cones)."""


class NotInInterior(ValueError):
    """Strong decomposability is defined for interior lattice points."""


class Cone2(NamedTuple):
    """kind is "ray" (one generator), "cone" (two generators, CCW order,
    strongly convex) or "halfplane" (generators (g, -g); the set is
    {x : det(g, x) >= 0}, i.e. the closed left side of g)."""

    lattice: str
    kind: str
    generators: tuple

    def contains(self, x) -> bool:
        if self.kind == "ray":
            g = self.generators[0]
            return det(g, x) == 0 and dot(g, x) >= 0
        if self.kind == "halfplane":
            return det(self.generators[0], x) >= 0
        g1, g2 = self.generators
        return det(g1, x) >= 0 and det(x, g2) >= 0

    def strictly_contains(self, x) -> bool:
        """Topological-interior membership (always False for rays)."""
        if self.kind == "ray":
            return False
        if self.kind == "halfplane":
            return det(self.generators[0], x) > 0
        g1, g2 = self.generators
        return det(g1, x) > 0 and det(x, g2) > 0


def ray(lattice: str, g) -> Cone2:
    return Cone2(lattice, "ray", (primitivize(g),))


def cone(lattice: str, g1, g2) -> Cone2:
    """Strongly convex two-dimensional cone; generator order is normalized
    to counterclockwise."""
    a, b = primitivize(g1), primitivize(g2)
    d = det(a, b)
    if d == 0:
        if a == b:
            return ray(lattice, a)
        raise ValueError(
            "antiparallel generators: construct a halfplane with an explicit side"
        )
    if d < 0:
        a, b = b, a
    return Cone2(lattice, "cone", (a, b))


def halfplane(lattice: str, boundary, inside) -> Cone2:
    """Halfplane with boundary line through ``boundary`` whose open side
    contains ``inside``."""
    g = primitivize(boundary)
    s = det(g, inside)
    if s == 0:
        raise ValueError("side marker lies on the boundary line")
    if s < 0:
        g = neg(g)
    return Cone2(lattice, "halfplane", (g, neg(g)))


def cone_from_normals(lattice: str, n1, n2, side_marker=None) -> Cone2:
    """Cone spanned by two vectors, degenerating to a halfplane for
    antiparallel input (the side containing ``side_marker``)."""
    a, b = primitivize(n1), primitivize(n2)
    if det(a, b) != 0:
        return cone(lattice, a, b)
    if a == b:
        return ray(lattice, a)
    if side_marker is None:
        raise ValueError("antiparallel normals need a side marker")
    return halfplane(lattice, a, side_marker)


def _other_lattice(lattice: str) -> str:
    return "N" if lattice == "M" else "M"


def dual_cone(c: Cone2) -> Cone2:
    """{u : <u, x> >= 0 for all x in c} in the dual lattice."""
    lat = _other_lattice(c.lattice)
    if c.kind == "halfplane":
        return ray(lat, rot90(c.generators[0]))
    if c.kind == "ray":
        g = c.generators[0]
        # boundary of the dual halfplane, left side containing g's rot90
        return Cone2(lat, "halfplane", ((g[1], -g[0]), (-g[1], g[0])))
    g1, g2 = c.generators
    return cone(lat, (g2[1], -g2[0]), (-g1[1], g1[0]))


def hilbert_basis(c: Cone2) -> tuple:
    """The unique minimal generating set of c intersected with the lattice.

    Rank-2 recipe: lattice points of the half-open fundamental
    parallelogram of the generators, together with the generators, then
    pairwise-subtraction minimalization.  Kept as the test oracle for
    the pairing-one route of is_strongly_decomposable.
    """
    if c.kind == "halfplane":
        raise NotPointed("halfplane semigroup has no finite Hilbert basis")
    if c.kind == "ray":
        return (c.generators[0],)
    g1, g2 = c.generators
    d = det(g1, g2)
    corners = [(0, 0), g1, g2, (g1[0] + g2[0], g1[1] + g2[1])]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    candidates = set()
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            p = (x, y)
            if p == (0, 0):
                continue
            a, b = det(p, g2), det(g1, p)
            if 0 <= a < d and 0 <= b < d:
                candidates.add(p)
    candidates.update([g1, g2])
    basis = []
    for h in sorted(candidates):
        reducible = False
        for s in candidates:
            r = (h[0] - s[0], h[1] - s[1])
            if r != (0, 0) and s != h and c.contains(r):
                reducible = True
                break
        if not reducible:
            basis.append(h)
    return tuple(basis)


def is_strongly_decomposable(w, c: Cone2):
    """Decide whether w = w' + w'' with both summands interior lattice
    points of c.  Returns (verdict, witness-or-None).

    In a pointed cone, w is indecomposable iff it is primitive and some
    lattice point of the dual cone pairs to 1 with it (the pairing-one
    search); a halfplane reduces to lattice distance > 1 from its boundary
    line.  Witnesses come from the independent brute-force search.
    """
    w = int_vector(w)
    if not c.strictly_contains(w):
        raise NotInInterior(f"{w} is not an interior lattice point of the cone")
    if c.kind == "halfplane":
        decomposable = det(c.generators[0], w) > 1
    else:
        decomposable = gcd(*w) > 1 or not exists_pairing_one(dual_cone(c), w)
    witness = None
    if decomposable:
        from .oracles import brute_decompose

        witness = brute_decompose(w, c)
        if witness is None:
            raise ArithmeticError(
                "decomposability test and brute-force witness search disagree"
            )
    return decomposable, witness


def exists_pairing_one(c: Cone2, v) -> bool:
    """Is there a lattice point u in c with <u, v> = 1?

    v is primitive, so the solutions of <u, v> = 1 form the affine lattice
    line u* + Z*m with m spanning the kernel; the cone constraints cut a
    rational interval in the line parameter, which is checked for an
    integer.
    """
    v = int_vector(v)
    g = gcd(v[0], v[1])
    if g != 1:
        raise ValueError("pairing target needs a primitive functional")
    if c.kind == "ray":
        return dot(c.generators[0], v) == 1
    # the cone constraints det(a, u) >= 0 read <u, rot90(a)> >= 0
    if c.kind == "halfplane":
        walls = [c.generators[0]]
    else:
        walls = [c.generators[0], neg(c.generators[1])]
    span = line_interval(
        [(rot90(a), 0) for a in walls], solve_pairing_one(v), rot90(v)
    )
    if span is None:
        return False
    lo, hi = span
    return lo is None or hi is None or ceil_frac(lo) <= floor_frac(hi)
