"""Shared deterministic generators and naive reference helpers."""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import random
import re
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd

from hypothesis import strategies as st
from toricfg import cli
from toricfg.cones import cone, halfplane, is_strongly_decomposable, ray
from toricfg.criterion import (
    ConstructionFailed,
    SegmentData,
    is_finitely_generated,
    max_segment,
)
from toricfg.fans import Fan2, ToricDivisor
from toricfg.geometry import (
    RatPolygon,
    UnboundedRegion,
    convex_hull,
    det,
    dot,
    int_vector,
    lattice_points,
    meet,
    neg,
    primitivize,
    rational,
    rot90,
    solve_pairing_one,
    vsub,
)
from toricfg.oracles import LAMBDA_MAX
from toricfg.semigroup import NOBody, d_of_q, make_context, theta


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_example(name: str, command: str = "fg") -> cli.Problem:
    """The worked example inputs/<name>.json as the CLI loads it for
    ``command``: "fg" gives the context at the file's direction, "scan"
    reads a file with no direction and "fg-all" one with no divisor."""
    path = os.path.join(ROOT, "inputs", name + ".json")
    return cli.load_problem(argparse.Namespace(command=command, input=path, direction=None))


def load_script(name):
    """The module of scripts/<name>, run from its file."""
    spec = importlib.util.spec_from_file_location(name[:-3], os.path.join(ROOT, "scripts", name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def p1p1_fan() -> Fan2:
    return Fan2.from_rays([(1, 0), (0, 1), (-1, 0), (0, -1)])


def p2_fan() -> Fan2:
    return Fan2.from_rays([(1, 0), (0, 1), (-1, -1)])


def rational_pools(bound: int, max_denominator: int):
    """(the integers, every value) of st.fractions(-bound, bound,
    max_denominator=...), that is of every p/q with q <= max_denominator
    in [-bound, bound], as lists sorted by denominator and then by
    distance from 0."""
    values = sorted({Fraction(p, q) for q in range(1, max_denominator + 1)
                     for p in range(-bound * q, bound * q + 1)},
                    key=lambda x: (x.denominator, abs(x), x))
    return [x for x in values if x.denominator == 1], values


def rationals(bound: int, max_denominator: int):
    """The values of st.fractions(-bound, bound, max_denominator=...),
    sampled from the lists of ``rational_pools``, which is much cheaper to
    draw.  Half the draws pick an integer and half any value, so integers
    come at least as often as from st.fractions, and examples shrink
    towards 0."""
    return st.one_of(*map(st.sampled_from, rational_pools(bound, max_denominator)))


# One seed per example, for the properties that build their case with
# random.Random(seed) from such lists in place of drawing every value
# through hypothesis
SEED = st.integers(0, 2**64 - 1)


def random_smooth_fan(rng: random.Random, max_subdivisions: int = 4) -> Fan2:
    """Stellar subdivisions of a smooth base fan stay smooth and complete."""
    base = rng.choice(
        [
            [(1, 0), (0, 1), (-1, 0), (0, -1)],
            [(1, 0), (0, 1), (-1, -1)],
            [(1, 0), (0, 1), (-1, 1), (0, -1)],
        ]
    )
    rays = list(base)
    for _ in range(rng.randrange(max_subdivisions + 1)):
        i = rng.randrange(len(rays))
        j = (i + 1) % len(rays)
        new = (rays[i][0] + rays[j][0], rays[i][1] + rays[j][1])
        rays.append(new)
        rays = Fan2.from_rays(rays).rays
        rays = list(rays)
    return Fan2.from_rays(rays)


def random_ample_divisor(rng: random.Random, fan: Fan2) -> ToricDivisor:
    """Zonotope support offsets with random positive weights are strictly
    convex at every ray, hence ample."""
    weights = [rng.randint(1, 3) for _ in fan.rays]
    coeffs = [
        sum(w * max(0, det(r, t)) for w, t in zip(weights, fan.rays))
        for r in fan.rays
    ]
    return ToricDivisor.make(fan, coeffs)


def random_direction(rng: random.Random, bound: int = 4):
    from math import gcd

    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (a, b) != (0, 0) and gcd(a, b) == 1:
            return (a, b)


def random_unimodular(rng: random.Random, digits: int) -> tuple:
    """A matrix ((a, b), (c, d)) of GL2(Z): a product of the shears
    [[1, t], [0, 1]] and [[1, 0], [t, 1]], 1 <= |t| <= 3, with the swap
    [[0, 1], [1, 0]] after about a quarter of them, stopped once an entry
    has ``digits`` digits.  A step grows the largest entry at most
    fourfold, so that entry has exactly ``digits`` digits; det is -1 after
    an odd number of swaps."""
    (a, b), (c, d) = (1, 0), (0, 1)
    while True:
        t = rng.choice((-3, -2, -1, 1, 2, 3))
        if rng.random() < 0.5:
            a, b = a + t * c, b + t * d
        else:
            c, d = c + t * a, d + t * b
        if rng.random() < 0.25:
            a, b, c, d = c, d, a, b
        if max(abs(a), abs(b), abs(c), abs(d)) >= 10 ** (digits - 1):
            return (a, b), (c, d)


def random_cone(rng: random.Random, bound: int = 6):
    from math import gcd

    from toricfg.cones import cone

    while True:
        g1 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        g2 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if g1 == (0, 0) or g2 == (0, 0) or det(g1, g2) == 0:
            continue
        if gcd(g1[0], g1[1]) != 1 or gcd(g2[0], g2[1]) != 1:
            continue
        return cone(g1, g2)


def interior_point(rng: random.Random, c, spread: int = 4):
    g1, g2 = c.generators
    i, j = rng.randint(1, spread), rng.randint(1, spread)
    return (i * g1[0] + j * g2[0], i * g1[1] + j * g2[1])


def cone_contains(c, x) -> bool:
    """Closed membership of the lattice point x in the Cone2 c: on the ray
    of a ray, else on the inner side of both walls."""
    g1 = c.generators[0]
    if c.kind == "ray":
        return det(g1, x) == 0 and dot(g1, x) >= 0
    return det(g1, x) >= 0 and det(x, c.generators[1]) >= 0


def enumerated_hilbert_basis(c) -> tuple:
    """The Hilbert basis of a pointed cone by enumeration, the oracle for
    the determinant-one walk ``cones.hilbert_basis``: the lattice points of
    the half-open fundamental parallelogram of the generators, read off
    its bounding box, together with the generators, less every point that
    another one reaches by a step inside the cone.  O(det^2)."""
    if c.kind == "ray":
        return (c.generators[0],)
    g1, g2 = c.generators
    d = det(g1, g2)
    corners = [(0, 0), g1, g2, (g1[0] + g2[0], g1[1] + g2[1])]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    candidates = {g1, g2}
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if (x, y) != (0, 0) and 0 <= det((x, y), g2) < d and 0 <= det(g1, (x, y)) < d:
                candidates.add((x, y))
    return tuple(
        h for h in sorted(candidates)
        if not any(s != h and cone_contains(c, vsub(h, s)) for s in candidates)
    )


def naive_lattice_points(p: RatPolygon):
    """Bounding box plus all-halfplane membership; the independent oracle
    for the chain-walk enumeration."""
    if p.is_empty:
        return []
    xs = [q[0] for q in p.vertices]
    ys = [q[1] for q in p.vertices]
    out = []
    for x in range(ceil(min(xs)), floor(max(xs)) + 1):
        for y in range(ceil(min(ys)), floor(max(ys)) + 1):
            if all(x * n[0] + y * n[1] >= o for n, o in p.halfplanes):
                out.append((x, y))
    return out


def column_level_count(columns, v) -> int:
    """The number of distinct levels <p, v> = a*x + b*y over the lattice
    points held as columns (x, y_lo, y_hi), for v = (a, b), by merging
    progressions; the oracle for the floor-sum ``geometry.level_count``.

    A column's levels are a progression of step |b|.  Columns with equal
    a*x mod |b| share a residue class, and the count is the size of each
    class's union of progressions.  With b = 0 a column is the one level
    a*x, so the count is the number of columns.
    """
    (a, b), step = v, abs(v[1]) or 1
    runs = []
    for x, y_lo, y_hi in columns:
        lo = a * x + min(b * y_lo, b * y_hi)
        runs.append((lo % step, lo, lo + abs(b) * (y_hi - y_lo)))
    count, residue, end = 0, None, None
    for r, lo, hi in sorted(runs):
        if r != residue or lo > end:
            residue, end = r, lo - step
        if hi > end:
            count += (hi - end) // step
            end = hi
    return count


def polygon_contains(p: RatPolygon, point) -> bool:
    """Whether the point lies in p, read off p's halfplanes."""
    x, y = (rational(c) for c in point)
    return not p.is_empty and all(n[0] * x + n[1] * y >= o for n, o in p.halfplanes)


def random_polygon(rng: random.Random, bound: int = 6, points: int = 6) -> RatPolygon:
    pts = [
        (rng.randint(-bound, bound), rng.randint(-bound, bound))
        for _ in range(points)
    ]
    return RatPolygon.from_vertices(pts)


def random_full_polygon(rng: random.Random, bound: int = 6) -> RatPolygon:
    while True:
        p = random_polygon(rng, bound)
        if p.dim == 2:
            return p


def normal_cone(p: RatPolygon, v):
    """The cone of inner normals of p at its face minimising <x, v>, on the
    normals of p's halfplanes that are tight at every vertex of that face:
    a ray along an edge, the cone of the two edge normals at a vertex, and
    at the end of a segment the halfplane bounded by its two normals on the
    side of the segment's own direction.  The tangent cone there is its
    dual."""
    face = p.face(v)
    tight = [n for n, o in p.halfplanes if all(dot(q, n) == o for q in face)]
    if len(tight) == 1:
        return ray(tight[0])
    walls = [n for n in tight if neg(n) in tight]
    if walls:
        return halfplane(walls[0], next(n for n in tight if n not in walls))
    return cone(*tight)


def one_sided_verdict(ctx) -> bool:
    """Finite generation read off the one side cone of a degenerate
    maximal segment (an extreme level, so the other side cone is None): v
    not strongly decomposable in sigma_plus, or -v not strongly
    decomposable in sigma_minus, whichever exists."""
    seg, v = max_segment(ctx.chord_walk), ctx.flag.v
    if seg.sigma_plus is not None:
        return not is_strongly_decomposable(v, seg.sigma_plus)
    return not is_strongly_decomposable(neg(v), seg.sigma_minus)


def edges(p: RatPolygon):
    """The counterclockwise (start, end) vertex pairs of p, edge i on
    halfplane i; the one pair of a segment, none for a point."""
    verts = p.vertices
    if p.dim < 1:
        return []
    if p.dim == 1:
        return [verts]
    return list(zip(verts, verts[1:] + verts[:1]))


def section(p: RatPolygon, v, c) -> tuple:
    """The two ends of p's section by the line <x, v> = c, ordered along
    rot90(v): the extremes of the vertices on that level and of the points
    where edges cross it.  A point or a segment counts too."""
    w = solve_pairing_one(rot90(v))  # <rot90(v), w> = 1
    pts = {q for q in p.vertices if dot(q, v) == c}
    for a, b in edges(p):
        fa, fb = dot(a, v) - c, dot(b, v) - c
        if (fa < 0 < fb) or (fb < 0 < fa):
            t = fa / (fa - fb)
            pts.add((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return min(pts, key=lambda q: dot(q, w)), max(pts, key=lambda q: dot(q, w))


def line_interval_chords(p: RatPolygon, v) -> list:
    """(level, length) at every vertex level of p, levels increasing: the
    length, in rot90(v)-units, of the interval that the level's line cuts
    out of p (its ``section``).  The independent oracle for the chain walk
    of ``geometry.ChordWalk``."""
    w = solve_pairing_one(rot90(v))
    out = []
    for c in sorted({dot(q, v) for q in p.vertices}):
        lo, hi = section(p, v, c)
        out.append((c, dot(vsub(hi, lo), w)))
    return out


def line_interval_max_chord(p: RatPolygon, v):
    """The longest chord orthogonal to v, in rot90(v)-units, and the vertex
    levels where it is reached, from ``line_interval_chords``."""
    chords = line_interval_chords(p, v)
    best = max((length for _, length in chords), default=None)
    return best, [c for c, length in chords if length == best]


def triple_meet_body(ctx) -> NOBody:
    """The Newton-Okounkov body with the roof d evaluated at 0, q_hat and
    every slope in between where three constraints of the parametric
    colon polytope meet: the lines of two rays meet at a point affine in
    q, which lies on a third ray's line at one q.  The active constraints
    change only there, so d kinks only there.  The O(n^3) oracle for the
    chord-length candidates of ``semigroup.newton_okounkov_body``."""
    qh = ctx.q_hat
    rays = ctx.divisor.fan.rays
    offs = [(-a, c) for a, c in zip(ctx.divisor.coeffs, ctx.flag.cprime_coeffs)]
    candidates = {Fraction(0), qh}
    for i, j in combinations(range(len(rays)), 2):
        u0 = meet(rays[i], offs[i][0], rays[j], offs[j][0])
        if u0 is None:
            continue
        u1 = meet(rays[i], offs[i][1], rays[j], offs[j][1])
        d = u0[2]  # the same for both meets; it cancels in alpha/beta
        for k in set(range(len(rays))) - {i, j}:
            alpha = dot(u0, rays[k]) - offs[k][0] * d
            beta = dot(u1, rays[k]) - offs[k][1] * d
            if beta != 0 and 0 <= Fraction(-alpha, beta) <= qh:
                candidates.add(Fraction(-alpha, beta))
    graph = [(q, d_of_q(ctx, q)) for q in sorted(candidates)]
    poly = RatPolygon.from_vertices([(Fraction(0), Fraction(0)), (qh, Fraction(0))] + graph)
    return NOBody(poly, tuple(sorted(p for p in poly.vertices if p[1] == d_of_q(ctx, p[0]))))


def vertex_level_max_segment(p_d: RatPolygon, v) -> SegmentData:
    """The maximal cross-section from explicit point sets: the longest
    section at a vertex level, then the side normals re-matched from the
    edges through each endpoint.  The independent oracle for max_segment."""
    v = (int(v[0]), int(v[1]))

    def side_normals(c, pt):
        above, below = None, None
        for (a, b), (n, _) in zip(edges(p_d), p_d.halfplanes):
            d, r = vsub(b, a), vsub(pt, a)
            if det(d, r) != 0 or not 0 <= dot(r, d) <= dot(d, d):
                continue
            fa, fb = dot(a, v) - c, dot(b, v) - c
            if max(fa, fb) > 0:
                above = n
            if min(fa, fb) < 0:
                below = n
        return above, below

    length, maximizers = line_interval_max_chord(p_d, v)
    c = Fraction(maximizers[0] + maximizers[-1]) / 2
    v1, v2 = section(p_d, v, c)
    n1a, n1b = side_normals(c, v1)
    n2a, n2b = side_normals(c, v2)
    below = None if n1b is None or n2b is None else cone(n1b, n2b, v)
    above = None if n1a is None or n2a is None else cone(n1a, n2a, neg(v))
    return SegmentData(c, v1, v2, length, below, above)


def projection_lift_search(ctx, q, lambda_max: int = LAMBDA_MAX):
    """Smallest lambda <= lambda_max such that the lambda-fold dilation of
    the colon polytope at slope q projects onto a lattice interval with no
    gaps, by projecting every lattice point of each dilate into a set;
    None when no such lambda exists in range.  The oracle for the column
    count of oracles.lift_search."""
    q = rational(q)
    base = theta(ctx, 1, q)
    if base.is_empty:
        raise ValueError("colon polytope is empty at this slope")
    a, b = ctx.flag.v
    for lam in range(1, lambda_max + 1):
        poly = base.dilate(lam)
        # the extreme levels <p, v> times L, on the int ring
        levels = [x * a + y * b for x, y in poly.ring]
        lo, hi = min(levels), max(levels)
        if lo % poly.scale or hi % poly.scale:
            continue
        values = {x * a + y * b for x, y in lattice_points(poly)}
        if all(t in values for t in range(lo // poly.scale, hi // poly.scale + 1)):
            return lam
    return None


def search_relaxation(theta_inf: RatPolygon, interior) -> int:
    """The least a >= 1 with support_min(r) > -a at every interior ray, by
    counting up; the oracle for criterion._relaxation."""
    relax = 1
    while not all(theta_inf.support_min(r) > -relax for r in interior):
        relax += 1
    return relax


def _edge_rays(p: RatPolygon, rays, coeffs) -> set:
    """The rays whose constraint <u, rho> >= -a_rho cuts an edge of
    positive length out of p."""
    if p.dim < 2:
        return set()
    offsets = dict(p.lines)
    return {r for r, a in zip(rays, coeffs) if offsets.get(r) == -a * p.scale}


def _lowering_ok(fan, coeffs, idx, cand, processed):
    trial = list(coeffs)
    trial[idx] = cand
    p = RatPolygon.from_halfplanes([(rr, -a) for rr, a in zip(fan.rays, trial)])
    return processed <= _edge_rays(p, fan.rays, trial)


def _search_coefficient(fan, coeffs, idx, floor, processed):
    """Walk the vertex levels of p_wo and the floor downwards and try the
    midpoint of each interval below the current coefficient."""
    r = fan.rays[idx]
    others = [
        (rr, -a) for k, (rr, a) in enumerate(zip(fan.rays, coeffs)) if k != idx
    ]
    p_wo = RatPolygon.from_halfplanes(others)
    current = Fraction(coeffs[idx])
    crit = sorted({-Fraction(dot(u, r)) for u in p_wo.vertices} | {floor}, reverse=True)
    upper = current
    for c in crit:
        if c >= upper:
            continue
        cand = (upper + c) / 2
        if cand >= floor and _lowering_ok(fan, coeffs, idx, cand, processed):
            return cand
        upper = c
    raise ConstructionFailed(f"no feasible coefficient below {current} at ray {r}")


def search_lowered_coefficients(fan: Fan2, interior, coeffs, floors) -> list:
    """The coefficients after lowering each interior ray by trial search:
    a ray that supports no edge yet gets the first midpoint that keeps an
    edge on it and on every ray handled before, without going below its
    floor.  Raises ConstructionFailed when no midpoint does; the oracle
    for the closed-form lowering of criterion.construct_bad_divisor."""
    coeffs = list(coeffs)
    processed = {r for r in fan.rays if r not in interior}
    for idx, r in enumerate(fan.rays):
        if r not in interior:
            continue
        processed.add(r)
        p = RatPolygon.from_halfplanes([(rr, -a) for rr, a in zip(fan.rays, coeffs)])
        if r not in _edge_rays(p, fan.rays, coeffs):
            coeffs[idx] = _search_coefficient(fan, coeffs, idx, floors[idx], processed)
    return coeffs


def search_halfplane_divisor(fan: Fan2, sigma, v, cap: int = 2**20) -> ToricDivisor:
    """The halfplane construction by trial search: stretch the zonotope
    offsets b_r = sum_t max(0, det(r, t)) by w*|det(g, r)| for w = 1, 2,
    4, ... and return the first divisor whose verdict fails finite
    generation off the fallback with sigma_plus == sigma.  The oracle for
    the computed weight of criterion._construct_bad_halfplane; the cap
    only stops a search that would not end."""
    g = sigma.generators[0]
    base = {r: sum(max(0, det(r, t)) for t in fan.rays) for r in fan.rays}
    weight = 1
    while weight <= cap:
        divisor = ToricDivisor.make(fan, {r: base[r] + weight * abs(det(g, r)) for r in fan.rays})
        verdict = is_finitely_generated(make_context(divisor, v))
        if not (verdict.finitely_generated or verdict.degenerate_side) and verdict.sigma_plus == sigma:
            return divisor
        weight *= 2
    raise ConstructionFailed(f"no stretch weight up to {cap} gives the halfplane cones")


def helly_certificates(normals):
    """Yield (indices, positive weights) for each antiparallel pair and each
    positively spanning triple of normals.

    In the plane, constraints <u, n_i> >= o_i have an empty intersection
    iff some certificate has sum(w * o_i) > 0 (Helly plus Farkas: the
    weighted normals cancel, so the weighted constraint reads 0 >= sum).
    The oracles below decide emptiness by it, a route independent of the
    deque walk and the turn rule of RatPolygon.from_halfplanes.
    """
    for i, j in combinations(range(len(normals)), 2):
        if normals[j] == neg(normals[i]):
            yield (i, j), (1, 1)
    for i, j, k in combinations(range(len(normals)), 3):
        ni, nj, nk = normals[i], normals[j], normals[k]
        l1, l2, l3 = det(nj, nk), det(nk, ni), det(ni, nj)
        if l1 > 0 and l2 > 0 and l3 > 0:
            yield (i, j, k), (l1, l2, l3)
        elif l1 < 0 and l2 < 0 and l3 < 0:
            yield (i, j, k), (-l1, -l2, -l3)


def helly_q_hat(ctx) -> Fraction:
    """Top slope from the parametric feasibility of the colon polytope's
    halfplane system: at slope q the offsets are base + q * slope, and
    every Helly certificate (antiparallel pair or positively spanning
    triple) bounds q linearly.  The independent oracle for q_hat."""
    offs = [(-a, c) for a, c in zip(ctx.divisor.coeffs, ctx.flag.cprime_coeffs)]
    bounds = []
    for idx, weights in helly_certificates(ctx.divisor.fan.rays):
        base = sum(w * offs[i][0] for i, w in zip(idx, weights))
        slope = sum(w * offs[i][1] for i, w in zip(idx, weights))
        # feasible iff base + q * slope <= 0
        if slope > 0:
            bounds.append(Fraction(-base, slope))
        elif slope == 0 and base > 0:
            bounds.append(Fraction(0))
    if not bounds:
        raise ValueError("slope is unbounded; divisor data cannot be ample")
    return min(bounds)


def _has_recession(normals) -> bool:
    """Is there a nonzero d with <d, n> >= 0 for every normal?  The
    pairwise oracle for the turn test of RatPolygon.from_halfplanes."""
    # Extreme recession directions are perpendicular to some normal.
    for n in normals:
        for d in (rot90(n), neg(rot90(n))):
            if all(dot(d, m) >= 0 for m in normals):
                return True
    return False


def views(p: RatPolygon) -> tuple:
    """(vertices, halfplanes, dim) of p: its Fraction views, in the form
    the Fraction oracles below return."""
    return p.vertices, p.halfplanes, p.dim


def _normalize_halfplane(normal, offset):
    """(primitive normal, offset divided by the normal's gcd) of one
    halfplane <u, normal> >= offset, checked as the kernel checks it."""
    n = int_vector(normal)
    if n == (0, 0):
        raise ValueError("halfplane normal must be nonzero")
    o, g = rational(offset), gcd(n[0], n[1])
    return (n[0] // g, n[1] // g), Fraction(o, g)


def fraction_from_halfplanes(halfplanes) -> tuple:
    """The halfplane intersection computed wholly in Fractions: meet every
    pair of lines, keep the points that satisfy every constraint and take
    their hull.  The independent oracle for the integer kernel of
    RatPolygon.from_halfplanes, as the (vertices, halfplanes, dim) triple
    of ``views``; it shares only the input checks (``int_vector`` and
    ``rational``) and convex_hull with it, decides boundedness by
    searching for a recession direction and emptiness by Helly
    certificates."""
    merged = {}
    for normal, offset in halfplanes:
        n, o = _normalize_halfplane(normal, offset)
        if n not in merged or merged[n] < o:
            merged[n] = o
    hps = sorted(merged.items())
    normals = [n for n, _ in hps]
    candidates = set()
    for (ni, oi), (nj, oj) in combinations(hps, 2):
        d = det(ni, nj)
        if d != 0:
            candidates.add(((oi * nj[1] - oj * ni[1]) / d,
                            (ni[0] * oj - nj[0] * oi) / d))
    feasible = [p for p in candidates if all(dot(p, n) >= o for n, o in hps)]
    if feasible:
        if _has_recession(normals):
            raise UnboundedRegion("feasible but unbounded halfplane intersection")
        return fraction_polygon_of_points(feasible)
    if not _has_recession(normals):
        return (), (), -1
    for idx, weights in helly_certificates(normals):
        if sum(w * hps[i][1] for i, w in zip(idx, weights)) > 0:
            return (), (), -1
    raise UnboundedRegion("feasible but unbounded halfplane intersection")


def fraction_polygon_of_points(points) -> tuple:
    """The canonical polygon of conv(points), built in Fractions, as the
    (vertices, halfplanes, dim) triple of ``views``; the oracle for the
    integer hull tail of RatPolygon.from_vertices."""
    hull = convex_hull([(Fraction(x), Fraction(y)) for x, y in points])
    if len(hull) == 1:
        (x, y) = hull[0]
        hps = (((-1, 0), -x), ((0, -1), -y), ((0, 1), y), ((1, 0), x))
    elif len(hull) == 2:
        a, b = hull
        d = primitivize(vsub(b, a))
        n = rot90(d)
        hps = tuple(sorted([(n, dot(a, n)), (neg(n), dot(a, neg(n))),
                            (d, dot(a, d)), (neg(d), dot(b, neg(d)))]))
    else:
        hps = []
        for a, b in zip(hull, hull[1:] + hull[:1]):
            n = primitivize(rot90(vsub(b, a)))
            hps.append((n, dot(a, n)))
        hps = tuple(hps)
    return tuple(hull), hps, min(len(hull), 3) - 1


def src_env() -> dict:
    """The environment with the checkout's src first on PYTHONPATH, so a
    child Python imports toricfg without an install."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


CliRun = namedtuple("CliRun", "returncode stdout stderr")


def run_main(*argv) -> CliRun:
    """Run ``toricfg.cli.main`` in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return CliRun(rc, out.getvalue(), err.getvalue())


# The CLI fuzz: each call takes one of the worked examples, moves it and
# runs it under a random subcommand.  Coordinates stay small, so it does
# not reach the large-coordinate witness searches.
TEXT_COMMANDS = ("semigroup", "plot")  # CSV and SVG; the others print JSON
PLOT_TARGETS = ("polytope", "fan", "nobody", "theta", "theta(1,1)", "theta(2,1)", "theta(0,0)")


def input_documents(bound: int) -> list:
    """The documents of inputs/*.json, in file name order, whose integers
    are all at most bound in absolute value."""
    folder = os.path.join(ROOT, "inputs")
    docs = []
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            text = fh.read()
        if all(abs(int(t)) <= bound for t in re.findall(r"-?\d+", text)):
            docs.append(json.loads(text))
    return docs


def _scaled_literal(x, num, den) -> list:
    """The rational literal x (an int or [n, d]) times num/den, as an
    [n, d] pair left out of lowest terms."""
    n, d = (x, 1) if isinstance(x, int) else x
    return [n * num, d * den]


def random_cli_call(rng: random.Random, docs) -> tuple:
    """(document, argv without --input) of one CLI call drawn from the
    documents ``docs``: the divisor coefficients or the polytope vertices
    scaled by num/den with num in [-1, 4] and den in [1, 3] (so zero and
    negative scales come too), a direction of max-norm <= 9 (one in four
    drawn from every pair, so zero or not primitive, the rest primitive)
    in the document or in --direction, and a random subcommand with
    small flags; plot draws its target from PLOT_TARGETS."""
    doc = json.loads(json.dumps(rng.choice(docs)))
    num, den = rng.randint(-1, 4), rng.randint(1, 3)
    if "divisor" in doc:
        doc["divisor"]["coefficients"] = [
            _scaled_literal(c, num, den) for c in doc["divisor"]["coefficients"]]
    if "polytope" in doc:
        doc["polytope"]["vertices"] = [
            [_scaled_literal(c, num, den) for c in p] for p in doc["polytope"]["vertices"]]
    direction = random_direction(rng, 9)
    if rng.random() < 0.25:
        direction = (rng.randint(-9, 9), rng.randint(-9, 9))
    command = rng.choice(list(cli.COMMANDS))
    argv = [command]
    if rng.random() < 0.5:
        doc["direction"] = list(direction)
    else:
        argv.append("--direction=%d,%d" % direction)
    if command == "scan":
        argv += ["--bound", str(rng.randint(1, 3))]
    elif command == "semigroup":
        # --expand lists every element, so it comes at level 1 only
        argv += rng.choice((["--lmax", str(rng.randint(1, 3))], ["--expand", "--lmax", "1"]))
    elif command == "plot":
        argv += ["--what", rng.choice(PLOT_TARGETS)] + ["--flip-axes"] * rng.randint(0, 1)
    return doc, argv
