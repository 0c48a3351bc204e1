#!/usr/bin/env python3
"""Search for symmetric 16-gons on the fixed smooth 16-ray fan for which
no scanned direction yields a finitely generated semigroup.

Candidate polygons are symmetric zonotopes: the sum of the segments
[-k*rot90(r), k*rot90(r)] over one ray r per antipodal pair, with weights
k constant on the orbits of the quarter-turn that preserves the ray set.
The bundled fixture inputs/sym16gon.json is the zonotope of weights
1,1,1,3, which came out of this search.  Those weights work because every
maximal cross-section either crosses an edge whose normal pairs to at
least 2 with the direction, or ends at a vertex whose side cones admit a
strong decomposition.  Rerun the search to see which small weight
vectors work.

Two exact filters run before any scanning:
  * edge filter: for an edge with inner normal r at offset a, the scaled
    open edge E/a must avoid lattice points, otherwise the direction
    perpendicular to that lattice point crosses the edge pair at lattice
    distance one and stays indecomposable;
  * vertex filter: for each vertex class the perpendicular direction must
    decompose in the side cone spanned by one edge normal and the
    negative of the other.
No test checks that the filters decide "no direction works at any
bound"; they only prune candidates.  What is checked is the scan: a
candidate is reported only when every primitive direction up to the
requested bound fails, and the tier-1 acceptance test scans the bundled
fixture up to max-norm 20.
"""

import argparse
import itertools

from toricfg.criterion import scan_directions
from toricfg.fans import divisor_from_polytope, normal_fan
from toricfg.geometry import RatPolygon, rot90

RAY_ORBITS = (
    ((1, 0), (0, 1)),
    ((2, 1), (-1, 2)),
    ((1, 1), (-1, 1)),
    ((1, 2), (-2, 1)),
)


def zonotope(weights):
    pts = [(0, 0)]
    for orbit, k in zip(RAY_ORBITS, weights):
        for r in orbit:
            e = rot90(r)
            pts = [
                (x + s * k * e[0], y + s * k * e[1])
                for (x, y) in pts
                for s in (1, -1)
            ]
    return RatPolygon.from_vertices(pts)


def filters_pass(polygon):
    from toricfg.cones import cone, is_strongly_decomposable
    from toricfg.geometry import lattice_points, neg, primitivize

    verts = polygon.vertices
    n = len(verts)
    for a, b, (_, offset) in zip(verts, verts[1:] + verts[:1], polygon.halfplanes):
        # the open scaled edge must miss the lattice: its lattice points
        # are at most its lattice endpoints (offset is minus the support
        # value, negative here)
        ends = [(x / -offset, y / -offset) for x, y in (a, b)]
        inside = len(lattice_points(RatPolygon.from_vertices(ends)))
        if inside > sum(x.denominator == y.denominator == 1 for x, y in ends):
            return False
    for i, p in enumerate(verts):
        vdir = primitivize(rot90(p))
        n1 = polygon.halfplanes[(i - 1) % n][0]
        n2 = polygon.halfplanes[i][0]
        # by central symmetry the two side cones are antipodal, so the
        # direction test and its negative are equivalent; try every combo
        # and keep the ones that are interior
        for w in (vdir, neg(vdir)):
            for c_gens in ((n2, neg(n1)), (n1, neg(n2))):
                c = cone(*c_gens)
                if c.strictly_contains(w) and is_strongly_decomposable(w, c):
                    break
            else:
                continue
            break
        else:
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-weight", type=int, default=3)
    ap.add_argument("--bound", type=int, default=8,
                    help="scan bound used to confirm filtered candidates")
    ap.add_argument("--limit", type=int, default=4,
                    help="stop after this many confirmed polygons")
    args = ap.parse_args()

    confirmed = []
    for weights in itertools.product(range(1, args.max_weight + 1), repeat=4):
        polygon = zonotope(weights)
        fan = normal_fan(polygon)
        if len(fan.rays) != 16 or not fan.is_smooth:
            continue
        if not filters_pass(polygon):
            continue
        results = scan_directions(divisor_from_polytope(polygon), args.bound)
        if any(v.finitely_generated for _, v in results):
            print(f"weights {weights}: passed the filters, but some scanned "
                  "direction is finitely generated")
            continue
        print(f"weights {weights}: all {len(results)} directions fail "
              f"(bound {args.bound})")
        confirmed.append(weights)
        if len(confirmed) >= args.limit:
            break
    print(f"confirmed weight vectors: {confirmed}")


if __name__ == "__main__":
    main()
