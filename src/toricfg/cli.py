"""Command-line front end.

Input is a single JSON document giving either a fan (rays) plus divisor
coefficients, or a polytope (vertices, the fan then being its normal
fan), a direction, and optional (l, k) pairs, scan bound and lambda cap.
Rationals are written as integers or [numerator, denominator] pairs.
JSON output uses the same exact forms: every rational an integer or a
[numerator, denominator] pair in lowest terms, and every vector an array.

Subcommands: analyze, semigroup, nobody, fg, fg-all, scan,
construct-bad, plot.  Validation failures exit with code 2 and a
machine-readable reason on stderr.  Output is a pure function of the
input file and flags.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import criterion as crit
from . import oracles, semigroup, svgfig
from .fans import (
    Fan2,
    InvalidFan,
    ToricDivisor,
    ample_polytope,
    divisor_from_polytope,
    flag_data,
)
from .geometry import RatPolygon, floor_sum, is_primitive
from .semigroup import FlagContext

# the most CSV rows semigroup writes, (l, k) cells or --expand triples; a
# run with more cells is refused before any e_bar, and one with more
# triples before any triple is built
MAX_SEMIGROUP_ROWS = 10**6


class InputError(Exception):
    """Invalid input; the message is the reason reported on stderr."""


def _is_int_pair(x) -> bool:
    """x is a list of two JSON integers (a bool is no integer here)."""
    return isinstance(x, list) and len(x) == 2 and all(type(t) is int for t in x)


def _frac_in(x):
    """An integer or [num, den] literal in the int normal form: an int
    when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise InputError("bad rational literal")
    if _is_int_pair(x) and x[1] != 0:
        f = Fraction(x[0], x[1])
        return f.numerator if f.denominator == 1 else f
    raise InputError(f"bad rational literal {x!r}: use an integer or [num, den]")


def _int_pair(x, what):
    if _is_int_pair(x):
        return (x[0], x[1])
    raise InputError(f"{what} must be a pair of integers")


def _exact(x):
    """The ``default`` hook of the output's ``json.dumps``: a Fraction as
    an int, or as [num, den] when it is not integral.  Tuples need no hook,
    since json writes them as arrays."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


class Problem(NamedTuple):
    """The validated input.  p_d is set for the semigroup commands and
    context for those of them that also take a direction, each built once
    here where the input is checked."""

    fan: Fan2
    divisor: ToricDivisor | None
    direction: tuple | None
    lk: list
    bound: int | None
    lambda_max: int | None
    p_d: RatPolygon | None
    context: FlagContext | None


def _field(doc, key, name):
    """doc[key][name], or None when doc[key] is not an object."""
    obj = doc.get(key)
    return obj.get(name) if isinstance(obj, dict) else None


# ray-pair combinatorics is meaningful on any complete fan; the other,
# semigroup-theoretic commands need a smooth fan input and an ample divisor
RAY_PAIR_COMMANDS = ("fg-all", "construct-bad")


def load_problem(args) -> Problem:
    """Read and validate the input document as the subcommand needs it."""
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input {args.input}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")

    semigroup_command = args.command not in RAY_PAIR_COMMANDS
    divisor = None
    if "fan" in doc:
        rays = _field(doc, "fan", "rays")
        if not isinstance(rays, list):
            raise InputError("fan.rays must be a list of integer pairs")
        ray_list = [_int_pair(r, "ray") for r in rays]
        try:
            fan = Fan2.from_rays(ray_list)
        except InvalidFan as exc:
            raise InputError(f"invalid fan: {exc}") from exc
        if semigroup_command and not fan.is_smooth:
            raise InputError("fan not smooth")
        if "divisor" in doc:
            coeffs = _field(doc, "divisor", "coefficients")
            if not isinstance(coeffs, list) or len(coeffs) != len(ray_list):
                raise InputError(
                    "divisor.coefficients must align with fan.rays"
                )
            table = {r: _frac_in(c) for r, c in zip(ray_list, coeffs)}
            divisor = ToricDivisor.make(fan, table)
    elif "polytope" in doc:
        verts = _field(doc, "polytope", "vertices")
        if not isinstance(verts, list) or len(verts) < 3:
            raise InputError("polytope.vertices must list at least three points")
        pts = []
        for p in verts:
            if not isinstance(p, list) or len(p) != 2:
                raise InputError("polytope vertices must be coordinate pairs")
            pts.append((_frac_in(p[0]), _frac_in(p[1])))
        poly = RatPolygon.from_vertices(pts)
        if poly.dim != 2:
            raise InputError("polytope not two-dimensional")
        divisor = divisor_from_polytope(poly)
        fan = divisor.fan
    else:
        raise InputError("input needs either a fan or a polytope")

    p_d = None
    if semigroup_command:
        if divisor is None:
            raise InputError("this subcommand needs divisor coefficients")
        p_d = ample_polytope(divisor)
        if p_d is None:
            raise InputError("divisor not ample")

    direction = None
    if args.direction is not None:
        m = re.fullmatch(r"\s*(-?\d+)\s*,\s*(-?\d+)\s*", args.direction)
        if not m:
            raise InputError("--direction must look like 'x,y'")
        direction = (int(m.group(1)), int(m.group(2)))
    elif "direction" in doc:
        direction = _int_pair(doc["direction"], "direction")
    # scan picks its own directions; plots of P_D and of the fan use none
    context = None
    if args.command != "scan" and getattr(args, "what", None) not in ("polytope", "fan"):
        if direction is None:
            raise InputError("no direction given")
        if not is_primitive(direction):
            raise InputError("direction not primitive")
        if semigroup_command:
            context = FlagContext(divisor, flag_data(fan, direction), p_d)

    lk = doc.get("lk", [])
    if not isinstance(lk, list):
        raise InputError("lk must be a list of integer pairs")
    lk = [_int_pair(pair, "lk entry") for pair in lk]
    bound, lambda_max = doc.get("bound"), doc.get("lambda_max")
    for name, val in (("bound", bound), ("lambda_max", lambda_max)):
        if val is not None and (type(val) is not int or val < 1):
            raise InputError(f"{name} must be a positive integer")
    return Problem(fan, divisor, direction, lk, bound, lambda_max, p_d, context)


def _cone_out(c):
    if c is None:
        return None
    return {"kind": c.kind, "generators": c.generators}


def _verdict_out(v):
    return {
        "finitely_generated": v.finitely_generated,
        "degenerate_side": v.degenerate_side,
        "sigma_plus": _cone_out(v.sigma_plus),
        "sigma_minus": _cone_out(v.sigma_minus),
        "witness_plus": v.witness_plus,
        "witness_minus": v.witness_minus,
    }


def cmd_analyze(problem: Problem, args) -> dict:
    ctx = problem.context
    verdict = crit.is_finitely_generated(ctx)
    body = semigroup.newton_okounkov_body(ctx)
    seg = verdict.segment
    lam_max = args.lambda_max or problem.lambda_max or oracles.LAMBDA_MAX
    lifting = []
    for q, d in body.breakpoints:
        lifts = crit.vertex_lifts(ctx, q)
        lam = oracles.lift_search(ctx, q, lam_max)
        lifting.append({"q": q, "d": d, "lifts": lifts, "lambda": lam})
    return {
        "fan": {"rays": problem.fan.rays, "smooth": problem.fan.is_smooth},
        "divisor": ctx.divisor.coeffs,
        "direction": ctx.flag.v,
        "m": ctx.flag.m,
        "cprime": [[r, c] for r, c in zip(problem.fan.rays, ctx.flag.cprime_coeffs)],
        "nabla_prime": ctx.flag.nabla_prime.vertices,
        "segment": {
            "level": seg.level,
            "v1": seg.v1,
            "v2": seg.v2,
            "q_hat": seg.q_hat,
        },
        "sigma_plus": _cone_out(verdict.sigma_plus),
        "sigma_minus": _cone_out(verdict.sigma_minus),
        "q_hat": seg.q_hat,
        "nobody": {
            "vertices": body.polygon.vertices,
            "breakpoints": body.breakpoints,
        },
        "finitely_generated": verdict.finitely_generated,
        "degenerate_side": verdict.degenerate_side,
        "witness_plus": verdict.witness_plus,
        "witness_minus": verdict.witness_minus,
        "lifting": lifting,
    }


def cmd_semigroup(problem: Problem, args) -> str:
    ctx = problem.context
    qh = ctx.q_hat
    # levels 1..lmax hold floor(l * q_hat) + 1 cells each
    count = args.lmax + floor_sum(args.lmax + 1, qh.denominator, qh.numerator, 0)
    if count <= MAX_SEMIGROUP_ROWS:
        slices = [semigroup.semigroup_slice(ctx, l) for l in range(1, args.lmax + 1)]
        if args.expand:
            count = sum(e for s in slices for _, e in s.entries)
    if count > MAX_SEMIGROUP_ROWS:
        raise InputError(f"semigroup would write {count} rows, over the cap of {MAX_SEMIGROUP_ROWS}")
    lines = []
    if args.expand:
        lines.append("# columns: l,k,delta -- all semigroup elements up to level lmax")
        lines.append("l,k,delta")
    else:
        lines.append(
            "# columns: l,k,e_bar -- each row encodes the semigroup triples"
            " (l,k,delta) for 0 <= delta <= e_bar-1"
        )
        lines.append("l,k,e_bar")
    for s in slices:
        rows = s.triples() if args.expand else ((s.level, k, e) for k, e in s.entries)
        lines.extend(f"{a},{b},{c}" for a, b, c in rows)
    return "\n".join(lines) + "\n"


def cmd_nobody(problem: Problem, args) -> dict:
    ctx = problem.context
    body = semigroup.newton_okounkov_body(ctx)
    return {
        "q_hat": semigroup.q_hat(ctx),
        "vertices": body.polygon.vertices,
        "breakpoints": body.breakpoints,
        "area": body.polygon.area(),
    }


def cmd_fg(problem: Problem, args) -> dict:
    verdict = crit.is_finitely_generated(problem.context)
    out = _verdict_out(verdict)
    if verdict.degenerate_side:
        out["lifting"] = [{"q": q, "d": d, "lifts": ok} for q, d, ok in verdict.lifting]
    return out


def cmd_fg_all(problem: Problem, args) -> dict:
    res = crit.fg_for_all_divisors(problem.fan, problem.direction)
    return {
        "holds": res.holds,
        "failing_cone": _cone_out(res.failing_cone),
        "failing_direction": res.failing_direction,
        "witness": res.witness,
    }


def cmd_scan(problem: Problem, args) -> list:
    bound = args.bound or problem.bound
    if not bound:
        raise InputError("scan needs --bound or an input bound")
    results = crit.scan_directions(problem.divisor, bound)
    return [
        {
            "direction": v,
            "finitely_generated": verdict.finitely_generated,
            "witness_plus": verdict.witness_plus,
            "witness_minus": verdict.witness_minus,
            "degenerate_side": verdict.degenerate_side,
        }
        for v, verdict in results
    ]


def cmd_construct_bad(problem: Problem, args) -> dict:
    failures = crit.failing_cones(problem.fan, problem.direction)
    first = next(failures, None)
    if first is None:
        return {
            "constructed": False,
            "reason": "no ray-spanned cone decomposes the direction; "
            "every ample divisor yields a finitely generated semigroup",
        }
    if first[0].kind != "cone":
        # prefer a pointed cone; the halfplane construction is the fallback
        first = next((f for f in failures if f[0].kind == "cone"), first)
    sigma, direction = first
    out = crit.construct_bad_divisor(problem.fan, sigma, direction)
    return {
        "constructed": True,
        "sigma": _cone_out(sigma),
        "direction": direction,
        "d_theta": out.d_theta.coeffs,
        "d_prime": out.d_prime.coeffs,
        "divisor": out.divisor.coeffs,
        "rays": problem.fan.rays,
        "p_d": out.p_d.vertices,
        "theta": out.theta.vertices,
        "finitely_generated": False,
    }


_THETA_RE = re.compile(r"theta\((-?\d+),(-?\d+)\)")


def cmd_plot(problem: Problem, args) -> str:
    what = args.what
    if what == "polytope":
        return svgfig.polygon_svg(problem.p_d, title="P_D")
    if what == "fan":
        return svgfig.fan_svg(problem.fan, title="fan")
    if what == "nobody":
        body = semigroup.newton_okounkov_body(problem.context)
        return svgfig.nobody_svg(body, flip_axes=args.flip_axes, title="NO body (q,t)")
    m = _THETA_RE.fullmatch(what)
    if what == "theta" or m:
        if m:
            l, k = int(m.group(1)), int(m.group(2))
        elif problem.lk:
            l, k = problem.lk[0]
        else:
            raise InputError("theta plot needs an (l,k) pair (input lk or theta(l,k))")
        if l < 0 or k < 0 or l == k == 0:
            raise InputError(f"theta({l},{k}) needs l, k >= 0, not both zero")
        t = semigroup.theta(problem.context, l, k)
        if t.is_empty:
            raise InputError(f"theta({l},{k}) is empty; nothing to draw")
        return svgfig.polygon_svg(t, title=f"theta({l},{k})")
    raise InputError(f"unknown plot target {what!r}")


def _write_output(text: str, output: str | None):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write output {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


# subcommand -> (handler, its own flags as add_argument keywords); a handler
# takes the problem and the parsed flags and returns text or a JSON value
COMMANDS = {
    "analyze": (cmd_analyze, {"--lambda-max": {"type": int}}),
    "semigroup": (cmd_semigroup, {
        "--lmax": {"type": int, "default": 3},
        "--expand": {"action": "store_true", "help": "emit full (l,k,delta) triples"},
    }),
    "nobody": (cmd_nobody, {}),
    "fg": (cmd_fg, {}),
    "fg-all": (cmd_fg_all, {}),
    "scan": (cmd_scan, {"--bound": {"type": int}}),
    "construct-bad": (cmd_construct_bad, {}),
    "plot": (cmd_plot, {
        "--what": {"required": True,
                   "help": "polytope | fan | theta | theta(l,k) | nobody"},
        "--flip-axes": {"action": "store_true"},
    }),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="toricfg",
        description="valuation semigroups of ample divisors on toric surfaces "
        "with one-parameter-subgroup flags",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="path to the JSON problem file")
        p.add_argument("--direction", help="flag direction 'x,y' (overrides input); "
                       "write a negative first coordinate as --direction=-2,3")
        p.add_argument("--output", help="write output here instead of stdout")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    args = ap.parse_args(argv)

    handler, _ = COMMANDS[args.command]
    # exact input and output may pass CPython's int <-> str digit limit
    # (Pythons before 3.10.7 have none); lift it for this call only, since
    # tests and the benchmark call main in process
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for dest, val in vars(args).items():
            if type(val) is int and val < 1:  # --bound, --lmax, --lambda-max
                raise InputError(f"--{dest.replace('_', '-')} must be a positive integer")
        out = handler(load_problem(args), args)
        if not isinstance(out, str):
            out = json.dumps(out, indent=2, default=_exact) + "\n"
        _write_output(out, args.output)
    except (InputError, svgfig.FigureTooLarge) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
