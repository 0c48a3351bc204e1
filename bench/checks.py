"""Correctness checks on the CLI outputs of each workload.

Each check takes one case of the manifest and the (exit code, stdout)
pairs of its CLI calls, and returns one list of failure reasons per call;
an empty list means the call passed.  The structural checks (sums,
memberships, agreement of fields) use plain integer arithmetic here; the
sampled cross-checks call the program's own independent oracles
(``lifting_table``, ``oracles.brute_e_bar``).  Checks never run inside a
timed or traced region.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from workloads import det, scan_directions


def _frac(x) -> Fraction:
    return Fraction(x[0], x[1]) if isinstance(x, list) else Fraction(x)


def _load_divisor(path: str):
    """The divisor of a problem file, built through the library API."""
    from toricfg import (
        Fan2,
        RatPolygon,
        ToricDivisor,
        divisor_from_polytope,
    )

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "polytope" in doc:
        poly = RatPolygon.from_vertices(
            [tuple(_frac(c) for c in p) for p in doc["polytope"]["vertices"]]
        )
        return divisor_from_polytope(poly), doc
    rays = [tuple(r) for r in doc["fan"]["rays"]]
    coeffs = [_frac(c) for c in doc["divisor"]["coefficients"]]
    return ToricDivisor.make(Fan2.from_rays(rays), dict(zip(rays, coeffs))), doc


def _parse_json(rc, out, errors):
    if rc != 0:
        errors.append(f"exit code {rc}")
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        errors.append(f"output is not JSON: {exc}")
        return None


def _vsum(parts):
    return [parts[0][0] + parts[1][0], parts[0][1] + parts[1][1]]


def _strictly_inside(cone, x) -> bool:
    gens = cone["generators"]
    if cone["kind"] == "halfplane":
        return det(gens[0], x) > 0
    if cone["kind"] == "cone":
        return det(gens[0], x) > 0 and det(x, gens[1]) > 0
    return False


def _verdict_errors(row, v):
    """A non-FG verdict carries witnesses that sum to +-v, or fell back to
    the lifting test; an FG verdict carries none.  With ``sigma_plus`` and
    ``sigma_minus`` present the witness parts must lie inside them."""
    errors = []
    wp, wm = row["witness_plus"], row["witness_minus"]
    if row["finitely_generated"]:
        if wp is not None or wm is not None:
            errors.append(f"{v}: finitely generated verdict carries a witness")
        return errors
    if wp is None and wm is None and not row["degenerate_side"]:
        errors.append(f"{v}: non-FG verdict without witness or fallback")
    for w, target, cone in ((wp, v, row.get("sigma_plus")),
                            (wm, [-v[0], -v[1]], row.get("sigma_minus"))):
        if w is None:
            continue
        if _vsum(w) != target:
            errors.append(f"{v}: witness does not sum to {target}")
        elif cone is not None and not all(_strictly_inside(cone, p) for p in w):
            errors.append(f"{v}: witness part outside its side cone")
    return errors


def check_scan(case, results, seed):
    errors = []
    rc, out = results[0]
    rows = _parse_json(rc, out, errors)
    if rows is None:
        return [errors]
    if [tuple(r["direction"]) for r in rows] != scan_directions(case["bound"]):
        errors.append("scanned directions differ from the bound's enumeration")
    for r in rows:
        errors.extend(_verdict_errors(r, r["direction"]))
    if case["label"] == "sym16gon" and any(r["finitely_generated"] for r in rows):
        errors.append("a sym16gon direction was reported finitely generated")
    if case["check_dirs"]:
        from toricfg import lifting_table, make_context

        divisor, _ = _load_divisor(case["input"])
        verdicts = {tuple(r["direction"]): r["finitely_generated"] for r in rows}
        for v in case["check_dirs"]:
            table = lifting_table(make_context(divisor, tuple(v), require_ample=False))
            if verdicts.get(tuple(v)) != all(ok for _, _, ok in table):
                errors.append(f"{v}: verdict disagrees with the lifting table")
    return [errors]


def check_analyze(case, results, seed):
    errors = []
    rc, out = results[0]
    doc = _parse_json(rc, out, errors)
    if doc is None:
        return [errors]
    errors.extend(_verdict_errors(doc, doc["direction"]))
    lifting = doc["lifting"]
    if not lifting:
        errors.append("no breakpoints in the lifting table")
    if doc["finitely_generated"] != all(row["lifts"] for row in lifting):
        errors.append("verdict disagrees with the breakpoint lifting column")
    for row in lifting:
        if row["lambda"] is not None and not row["lifts"]:
            errors.append(f"q={row['q']}: dilation search lifts a non-lifting vertex")
    with open(case["input"], encoding="utf-8") as fh:
        if doc["direction"] != json.load(fh)["direction"]:
            errors.append("direction differs from the input")
    return [errors]


def check_semigroup(case, results, seed):
    errors = []
    rc, out = results[0]
    if rc != 0:
        return [[f"exit code {rc}"]]
    lines = out.splitlines()
    if len(lines) < 2 or lines[1] != "l,k,e_bar":
        return [["missing CSV header"]]
    try:
        cells = [tuple(int(t) for t in line.split(",")) for line in lines[2:]]
    except ValueError:
        return [["malformed CSV row"]]
    levels = sorted({c[0] for c in cells})
    if levels != list(range(1, case["lmax"] + 1)):
        errors.append("rows do not cover levels 1..lmax")
    for l in levels:
        ks = [c[1] for c in cells if c[0] == l]
        if ks != list(range(len(ks))):
            errors.append(f"level {l}: k values are not 0..kmax")
    if cells and not errors:
        from toricfg import make_context
        from toricfg.oracles import brute_e_bar

        divisor, doc = _load_divisor(case["input"])
        ctx = make_context(divisor, tuple(doc["direction"]))
        rng = random.Random(f"{seed}:{case['id']}")
        for l, k, e in rng.sample(cells, min(2, len(cells))):
            if brute_e_bar(ctx, l, k) != e:
                errors.append(f"e_bar({l},{k}) = {e} disagrees with brute force")
    return [errors]


def check_allfan(case, results, seed):
    errs_all, errs_bad = [], []
    fg = _parse_json(*results[0], errs_all)
    bad = _parse_json(*results[1], errs_bad)
    with open(case["input"], encoding="utf-8") as fh:
        doc = json.load(fh)
    v = doc["direction"]
    if fg is not None:
        if fg["holds"]:
            if fg["witness"] is not None or fg["failing_cone"] is not None:
                errs_all.append("criterion holds but a failing cone is reported")
        else:
            w, c, fd = fg["witness"], fg["failing_cone"], fg["failing_direction"]
            if fd not in (v, [-v[0], -v[1]]):
                errs_all.append("failing direction is not +-v")
            elif w is None or _vsum(w) != fd:
                errs_all.append("witness parts do not sum to the failing direction")
            elif not all(_strictly_inside(c, part) for part in w):
                errs_all.append("a witness part is not interior to the failing cone")
    if bad is not None and fg is not None:
        if bad["constructed"] == fg["holds"]:
            errs_bad.append("construct-bad disagrees with fg-all")
        elif bad["constructed"]:
            if not _strictly_inside(bad["sigma"], bad["direction"]):
                errs_bad.append("direction is not interior to the chosen cone")
            if bad["finitely_generated"] is not False:
                errs_bad.append("constructed divisor not reported as non-FG")
            if len(bad["divisor"]) != len(doc["fan"]["rays"]):
                errs_bad.append("constructed divisor does not match the fan")
    return [errs_all, errs_bad]


CHECKS = {
    "scan": check_scan,
    "analyze": check_analyze,
    "semigroup": check_semigroup,
    "allfan": check_allfan,
}
