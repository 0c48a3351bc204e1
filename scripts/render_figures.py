#!/usr/bin/env python3
"""Render the worked examples to SVG files under figures/."""

import argparse
import os

from toricfg.cli import load_problem
from toricfg.fans import normal_fan
from toricfg.semigroup import newton_okounkov_body, theta
from toricfg.svgfig import fan_svg, nobody_svg, polygon_svg

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "inputs")


def load(name, command="fg"):
    """inputs/<name>.json as the CLI reads it for ``command``."""
    path = os.path.join(INPUTS, name + ".json")
    return load_problem(argparse.Namespace(command=command, input=path, direction=None))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="figures")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    ctx = load("slanted_quad").context
    sevengon = load("sevengon")
    sym16gon = load("sym16gon", "scan").p_d
    figures = {
        "slanted_quad_polytope.svg": polygon_svg(ctx.p_d, title="P_D"),
        "slanted_quad_fan.svg": fan_svg(ctx.divisor.fan, title="normal fan"),
        "slanted_quad_nabla_prime.svg": polygon_svg(
            ctx.flag.nabla_prime, title="nef polytope of the flag curve"
        ),
        "slanted_quad_theta_1_1.svg": polygon_svg(theta(ctx, 1, 1), title="theta(1,1)"),
        "slanted_quad_theta_3_2.svg": polygon_svg(theta(ctx, 3, 2), title="theta(3,2)"),
        "slanted_quad_nobody.svg": nobody_svg(
            newton_okounkov_body(ctx), title="NO body (q,t)"
        ),
        "slanted_quad_nobody_flipped.svg": nobody_svg(
            newton_okounkov_body(ctx), flip_axes=True, title="NO body (t,q)"
        ),
        "sevengon.svg": polygon_svg(sevengon.p_d, title="the good 7-gon"),
        "sevengon_fan.svg": fan_svg(normal_fan(sevengon.p_d), title="7-gon fan"),
        "sevengon_nobody.svg": nobody_svg(
            newton_okounkov_body(sevengon.context), title="NO body (q,t)"
        ),
        "sym16gon.svg": polygon_svg(sym16gon, title="no good direction"),
        "sym16gon_fan.svg": fan_svg(normal_fan(sym16gon), title="16-ray fan"),
    }
    for name, svg in figures.items():
        path = os.path.join(args.outdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print("wrote", path)


if __name__ == "__main__":
    main()
