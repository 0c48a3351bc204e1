"""Seeded inputs for the four benchmark workloads.

Each workload is a round-robin over fixed strata.  A stratum fixes what
sets the cost of a case (ray count, scan bound, weight scale, lmax, lambda
cap, ray-coordinate range); the seed picks the geometry inside it (which
rays get subdivided, the zonotope weights, the direction).  So every run
sees the same cost mix whatever its seed, and a run that stops after any
number of cases has sampled every stratum about equally often.

This module only uses the standard library: it writes CLI problem files
and a manifest, and never calls the program under test.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

WORKLOADS = ("scan", "analyze", "semigroup", "allfan")

# Cases written at set-up, a multiple of every stratum count.  A pass that
# has used them all writes the next CHUNK cases outside its timed region,
# so no case repeats within a run however fast the program is, and set-up
# time stays mostly the program's own import time.
POOL_SIZE = 30
CHUNK = 60

# Cases in the fixed prefix that the traced pass, its untraced twin and the
# output digest cover, so their counts and bytes depend on the seed only.
PREFIX_SIZE = {"scan": 40, "analyze": 120, "semigroup": 60, "allfan": 160}

# The centrally symmetric 16-gon whose every direction fails finite
# generation (the paper's headline example).
SYM16GON = (
    (-15, -3), (-13, -7), (-11, -9), (1, -15), (3, -15), (7, -13), (9, -11),
    (15, 1), (15, 3), (13, 7), (11, 9), (-1, 15), (-3, 15), (-7, 13),
    (-9, 11), (-15, -1),
)
SLANTED_QUAD = {"rays": [[-1, 0], [0, -1], [1, 2], [0, 1]],
                "coefficients": [0, 0, 8, 3], "direction": [-2, 3]}
SEVENGON = {"vertices": [[4, 1], [7, 2], [9, 3], [6, 5], [1, 8], [1, 7], [2, 4]],
            "direction": [0, 1]}

# scan: (ray counts cycled, scan bound).  Stratum 0 is the 16-gon.
SCAN_STRATA = (
    ("sym16gon", 2),
    ((3, 4, 5), 4),
    ((6, 7, 8), 3),
    ((9, 10, 11, 12), 2),
    ((13, 14, 15, 16), 2),
)
# Coefficient scales cycled through the seeded scan strata: plain,
# rational, and about 40 bits, so coordinate bit size varies.
SCAN_SCALES = (Fraction(1), Fraction(7, 3), Fraction(2**40 + 15))

# analyze: (input, --lambda-max).  A seeded input is (ray counts cycled,
# zonotope weight range); the weight range sets polygon area, so the growth
# of the dilation search with area shows across strata, and the lambda cap
# bounds that search, so a vertex that never lifts still finishes in
# bounded time.  Seeded costs spread widely (a vertex that does not lift
# costs area * lambda^3), so fixed slanted_quad anchors hold the
# percentiles: at cap 20 they are a third of the calls and costlier than
# most seeded calls, so the median call is one of them; at cap 32 they
# cost more than nearly every seeded call, so the 90th percentile falls
# among them.
ANALYZE_STRATA = (
    (((3, 4), (1, 2)), 20),
    (((3, 4), (3, 3)), 20),
    ("slanted_quad", 20),
    ("slanted_quad", 20),
    (((5, 6), (1, 2)), 20),
    ("slanted_quad", 32),
)

# semigroup: (input, lmax values cycled), in rising order of cost.  Both
# small and large lmax appear.  The fixed sevengon input at lmax 3 fills
# two of the six strata, a third of all calls, so the median call is always
# a sevengon call even where neighbouring strata overlap it in cost; the
# 90th percentile falls inside the last stratum, slanted_quad at lmax 20.
# Neither depends on the seed; the seeded strata move the throughput.
SEMIGROUP_STRATA = (
    ("slanted_quad", (2, 4, 6)),
    (((3, 4), (1, 2)), (3, 5)),
    ("sevengon", (3,)),
    ("sevengon", (3,)),
    (((4, 5, 6), (1, 1)), (6, 8)),
    ("slanted_quad", (20,)),
)

# allfan: (ray counts cycled, ray coordinate bound).  Fans are complete but
# need not be smooth, so cone determinants grow with the coordinate bound.
# construct-bad's relaxation loop runs about n * bound^2 times; at bound 36
# one case took 10 s, so the bound stops at 24 and no single case can take
# most of a run.
ALLFAN_STRATA = (
    ((3, 4, 5), 4),
    ((4, 5, 6), 8),
    ((5, 6, 7), 12),
    ((3, 4, 5), 16),
    ((4, 5), 24),
)


def det(u, w):
    return u[0] * w[1] - u[1] * w[0]


def primitive(rng: random.Random, bound: int):
    while True:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0) and gcd(v[0], v[1]) == 1:
            return v


def smooth_fan(rng: random.Random, n: int):
    """Cyclically ordered rays of a smooth complete fan with n rays.

    Starts from P^2 (n = 3) or a Hirzebruch surface and inserts r + s
    between neighbours r, s; det(r, r + s) = det(r, s) = 1 keeps it smooth.
    """
    if n == 3:
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        a = rng.randint(0, 2)
        rays = [(1, 0), (0, 1), (-1, a), (0, -1)]
    while len(rays) < n:
        i = rng.randrange(len(rays))
        r, s = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (r[0] + s[0], r[1] + s[1]))
    return rays


def zonotope_coefficients(rng: random.Random, rays, weights, scale=Fraction(1)):
    """Support offsets of a weighted zonotope; strictly convex at every ray
    because each ray's own segment contributes an edge, hence ample."""
    w = [rng.randint(*weights) for _ in rays]
    return [
        scale * sum(wt * max(0, det(r, t)) for wt, t in zip(w, rays))
        for r in rays
    ]


def _angle_key(a, b):
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    d = det(a, b)
    return 0 if d == 0 else (-1 if d > 0 else 1)


def complete_fan(rng: random.Random, n: int, bound: int):
    """n distinct primitive rays with coordinates in [-bound, bound] whose
    cones cover the plane (every angle between neighbours below pi)."""
    while True:
        rays = sorted({primitive(rng, bound) for _ in range(n)},
                      key=functools.cmp_to_key(_angle_key))
        if len(rays) == n and all(
            det(rays[i], rays[(i + 1) % n]) > 0 for i in range(n)
        ):
            return rays


def scan_directions(bound: int):
    """Directions that ``scan --bound`` visits, in its order: primitive
    (a, b) of max-norm at most bound, one per antipodal pair."""
    return [
        (a, b)
        for a in range(bound + 1)
        for b in ([1] if a == 0 else range(-bound, bound + 1))
        if gcd(a, b) == 1
    ]


def _rational(x: Fraction):
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


def _fan_doc(rays, coeffs=None, direction=None):
    doc = {"fan": {"rays": [list(r) for r in rays]}}
    if coeffs is not None:
        doc["divisor"] = {"coefficients": [_rational(Fraction(c)) for c in coeffs]}
    if direction is not None:
        doc["direction"] = list(direction)
    return doc


def _scan_case(rng, i):
    kind, bound = SCAN_STRATA[i % len(SCAN_STRATA)]
    cycle = i // len(SCAN_STRATA)
    if kind == "sym16gon":
        doc = {"polytope": {"vertices": [list(p) for p in SYM16GON]}}
        label = "sym16gon"
    else:
        n = kind[cycle % len(kind)]
        scale = SCAN_SCALES[(cycle // len(kind)) % len(SCAN_SCALES)]
        rays = smooth_fan(rng, n)
        doc = _fan_doc(rays, zonotope_coefficients(rng, rays, (1, 3), scale))
        label = f"n{n}"
    # one direction in every fourth case is re-checked against the lifting table
    check_dirs = [list(rng.choice(scan_directions(bound)))] if i % 4 == 0 else []
    return doc, ["scan", "--bound", str(bound)], {
        "label": label, "bound": bound, "units": len(scan_directions(bound)),
        "check_dirs": check_dirs,
    }


def _analyze_case(rng, i):
    kind, lam = ANALYZE_STRATA[i % len(ANALYZE_STRATA)]
    if kind == "slanted_quad":
        doc = _fan_doc(SLANTED_QUAD["rays"], SLANTED_QUAD["coefficients"],
                       SLANTED_QUAD["direction"])
        label = f"{kind}-lam{lam}"
    else:
        ns, weights = kind
        n = ns[(i // len(ANALYZE_STRATA)) % len(ns)]
        rays = smooth_fan(rng, n)
        doc = _fan_doc(rays, zonotope_coefficients(rng, rays, weights),
                       primitive(rng, 3))
        label = f"n{n}w{weights[0]}-{weights[1]}"
    return doc, ["analyze", "--lambda-max", str(lam)], {"label": label, "units": 1}


def _semigroup_case(rng, i):
    kind, lmaxes = SEMIGROUP_STRATA[i % len(SEMIGROUP_STRATA)]
    lmax = lmaxes[(i // len(SEMIGROUP_STRATA)) % len(lmaxes)]
    if kind == "slanted_quad":
        doc = _fan_doc(SLANTED_QUAD["rays"], SLANTED_QUAD["coefficients"],
                       SLANTED_QUAD["direction"])
        label = kind
    elif kind == "sevengon":
        doc = {"polytope": {"vertices": SEVENGON["vertices"]},
               "direction": SEVENGON["direction"]}
        label = kind
    else:
        ns, weights = kind
        n = ns[(i // len(SEMIGROUP_STRATA) // len(lmaxes)) % len(ns)]
        rays = smooth_fan(rng, n)
        doc = _fan_doc(rays, zonotope_coefficients(rng, rays, weights),
                       primitive(rng, 2))
        label = f"n{n}w{weights[1]}"
    return doc, ["semigroup", "--lmax", str(lmax)], {
        "label": f"{label}-L{lmax}", "lmax": lmax, "units": None,
    }


def _allfan_case(rng, i):
    ns, bound = ALLFAN_STRATA[i % len(ALLFAN_STRATA)]
    n = ns[(i // len(ALLFAN_STRATA)) % len(ns)]
    doc = _fan_doc(complete_fan(rng, n, bound), direction=primitive(rng, 4))
    return doc, None, {"label": f"n{n}r{bound}", "units": 1}


STRATA = {
    "scan": SCAN_STRATA,
    "analyze": ANALYZE_STRATA,
    "semigroup": SEMIGROUP_STRATA,
    "allfan": ALLFAN_STRATA,
}
_MAKERS = {
    "scan": _scan_case,
    "analyze": _analyze_case,
    "semigroup": _semigroup_case,
    "allfan": _allfan_case,
}


def generate(workload: str, seed: int, start: int = 0, stop: int = POOL_SIZE):
    """Cases start..stop-1 of a workload as (problem document, CLI argument
    tail, metadata) triples.  Case i depends only on the workload, the seed
    and i, so equal seeds give equal cases."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        _MAKERS[workload](random.Random(f"{workload}:{seed}:{i}"), i)
        for i in range(start, stop)
    ]


def write_cases(workload: str, seed: int, directory: Path,
                start: int = 0, stop: int = POOL_SIZE):
    """Write cases start..stop-1 as CLI problem files; returns their
    manifest entries, which list the CLI calls of each case."""
    directory.mkdir(parents=True, exist_ok=True)
    cases = []
    for i, (doc, tail, meta) in enumerate(generate(workload, seed, start, stop), start):
        path = directory / f"case{i:05d}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        if workload == "allfan":
            calls = [["fg-all", "--input", str(path)],
                     ["construct-bad", "--input", str(path)]]
        else:
            calls = [[tail[0], "--input", str(path), *tail[1:]]]
        cases.append({"id": i, "stratum": i % n_strata(workload),
                      "input": str(path), "calls": calls, **meta})
    return cases


def write_pool(workload: str, seed: int, directory: Path):
    """The set-up: the first POOL_SIZE cases plus ``manifest.json``."""
    cases = write_cases(workload, seed, directory)
    manifest = {"workload": workload, "seed": seed, "cases": cases}
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest


def n_strata(workload: str) -> int:
    return len(STRATA[workload])
