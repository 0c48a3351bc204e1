"""Rational cones in a rank-2 lattice: duals, Hilbert bases, the
strong-decomposability test, and exact search for lattice points with a
prescribed pairing value.

A cone knows which lattice it lives in ("M" or "N"); dualizing swaps the
tag.  Maximal-cross-section cones of polygons with parallel edges
degenerate to halfplanes; a halfplane is stored as the cone on (g, -g),
so membership, duality, the pairing-one search and decomposability read
it exactly as a strongly convex cone.  Only the Hilbert basis (which a
halfplane lacks) and the witness search treat it apart.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .geometry import (
    det,
    dot,
    int_vector,
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
    strongly convex) or "halfplane" (generators (g, -g)).  Both
    two-generator kinds are the set {x : det(g1, x) >= 0, det(x, g2) >= 0};
    for (g, -g) the two walls coincide in the closed left side of g."""

    lattice: str
    kind: str
    generators: tuple

    def contains(self, x) -> bool:
        g1 = self.generators[0]
        if self.kind == "ray":
            return det(g1, x) == 0 and dot(g1, x) >= 0
        return det(g1, x) >= 0 and det(x, self.generators[1]) >= 0

    def strictly_contains(self, x) -> bool:
        """Topological-interior membership (always False for rays)."""
        if self.kind == "ray":
            return False
        g1, g2 = self.generators
        return det(g1, x) > 0 and det(x, g2) > 0


def ray(lattice: str, g) -> Cone2:
    return Cone2(lattice, "ray", (primitivize(g),))


def cone(lattice: str, g1, g2, inside=None) -> Cone2:
    """Cone spanned by g1 and g2: a ray when they point the same way, the
    halfplane on the side of ``inside`` when they are antiparallel, and
    otherwise the strongly convex cone with its generators in
    counterclockwise order."""
    a, b = primitivize(g1), primitivize(g2)
    d = det(a, b)
    if d == 0:
        if a == b:
            return ray(lattice, a)
        if inside is None:
            raise ValueError(
                "antiparallel generators: construct a halfplane with an explicit side"
            )
        return halfplane(lattice, a, inside)
    if d < 0:
        a, b = b, a
    return Cone2(lattice, "cone", (a, b))


def halfplane(lattice: str, boundary, inside) -> Cone2:
    """Halfplane with boundary line through ``boundary`` whose open side
    contains ``inside``."""
    g = primitivize(boundary)
    s = det(g, inside)
    if s == 0:
        raise ValueError("inside point lies on the boundary line")
    if s < 0:
        g = neg(g)
    return Cone2(lattice, "halfplane", (g, neg(g)))


def _other_lattice(lattice: str) -> str:
    return "N" if lattice == "M" else "M"


def dual_cone(c: Cone2) -> Cone2:
    """{u : <u, x> >= 0 for all x in c} in the dual lattice: the cone on
    the inner normals -rot90(g2) and rot90(g1) of the two walls.  A ray g
    counts as the walls (g, g) and gives the halfplane containing g; the
    walls (g, -g) of a halfplane give the ray rot90(g)."""
    g1, g2 = c.generators[0], c.generators[-1]
    return cone(_other_lattice(c.lattice), (g2[1], -g2[0]), rot90(g1), g1)


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

    w is indecomposable iff it is primitive and some lattice point of the
    dual cone pairs to 1 with it (the pairing-one search).  For a
    halfplane (g, -g) the dual is the ray rot90(g) and <rot90(g), w> =
    det(g, w), so this reads: w lies at lattice distance 1 from the
    boundary line.  Witnesses come from the independent brute-force
    search.
    """
    w = int_vector(w)
    if not c.strictly_contains(w):
        raise NotInInterior(f"{w} is not an interior lattice point of the cone")
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

    v is primitive, so the solutions of <u, v> = 1 form the lattice line
    u* + t*rot90(v), t in Z.  On it the wall det(a, x) >= 0 of a
    two-generator cone (a = g1 and a = -g2, one wall twice for a
    halfplane) reads det(a, u*) + t*<a, v> >= 0, so each wall bounds t by
    one floor division, or keeps or misses the whole line when <a, v> = 0.
    """
    v = int_vector(v)
    g = gcd(v[0], v[1])
    if g != 1:
        raise ValueError("pairing target needs a primitive functional")
    if c.kind == "ray":
        return dot(c.generators[0], v) == 1
    u, (g1, g2) = solve_pairing_one(v), c.generators
    lo, hi = [], []
    for a in (g1, neg(g2)):
        r, s = det(a, u), dot(a, v)
        if s > 0:
            lo.append(-(r // s))
        elif s < 0:
            hi.append(r // -s)
        elif r < 0:
            return False
    return not lo or not hi or max(lo) <= min(hi)
