"""Complete fans in the rank-2 one-parameter-subgroup lattice, toric
divisors with their polytopes, ampleness, and the flag data attached to a
primitive direction (orthogonal character, Newton segment, torus-invariant
curve replacement and its nef polytope)."""

from __future__ import annotations

from typing import NamedTuple

from .geometry import (
    RatPolygon,
    DegeneratePolygon,
    UnboundedRegion,
    angular_sorted,
    det,
    dot,
    int_vector,
    is_primitive,
    rational,
    rot90,
    wide_turn,
)


class NonPrimitiveDirection(ValueError):
    """A flag direction must be a primitive lattice vector."""


class UnboundedPolytope(ValueError):
    """The divisor is not nef, so its polytope is unbounded."""


class InvalidFan(ValueError):
    """Ray data does not describe a complete fan."""


class Fan2(NamedTuple):
    """Complete fan given by its cyclically ordered primitive rays."""

    rays: tuple

    @staticmethod
    def from_rays(rays) -> "Fan2":
        rs = [int_vector(r) for r in rays]
        if len(rs) < 3:
            raise InvalidFan("a complete fan needs at least three rays")
        for r in rs:
            if not is_primitive(r):
                raise InvalidFan(f"ray {r} is not primitive")
        if len(set(rs)) != len(rs):
            raise InvalidFan("duplicate rays")
        rs = angular_sorted(rs)
        i = wide_turn(rs)
        if i is not None:
            r, s = rs[i], rs[(i + 1) % len(rs)]
            raise InvalidFan(
                f"rays {r} and {s} span an angle of at least pi; fan not complete"
            )
        return Fan2(tuple(rs))

    @property
    def is_smooth(self) -> bool:
        rs = self.rays
        return all(det(rs[i], rs[(i + 1) % len(rs)]) == 1 for i in range(len(rs)))


def _coefficient(a):
    """a in the int normal form: an int when it is integral, else a
    Fraction; a float raises TypeError."""
    a = rational(a)
    return a.numerator if a.denominator == 1 else a


class ToricDivisor(NamedTuple):
    """D = sum of a_rho * D_rho; coefficients aligned with fan.rays.

    ``make`` and ``+`` keep each coefficient in the int normal form: an
    int when it is integral, a Fraction otherwise.  So an integral divisor
    builds its polygons in int arithmetic, while Fraction(3) == 3 with
    equal hashes keeps equality and hashing as for Fractions."""

    fan: Fan2
    coeffs: tuple

    @staticmethod
    def make(fan: Fan2, coeffs) -> "ToricDivisor":
        if isinstance(coeffs, dict):
            table = {int_vector(r): _coefficient(a) for r, a in coeffs.items()}
            vals = tuple(table.get(r, 0) for r in fan.rays)
            unknown = set(table) - set(fan.rays)
            if unknown:
                raise ValueError(f"coefficients given for non-rays {sorted(unknown)}")
        else:
            if len(coeffs) != len(fan.rays):
                raise ValueError("coefficient list does not match ray count")
            vals = tuple(_coefficient(a) for a in coeffs)
        return ToricDivisor(fan, vals)

    def __add__(self, other: "ToricDivisor") -> "ToricDivisor":
        if self.fan != other.fan:
            raise ValueError("divisors live on different fans")
        return ToricDivisor(
            self.fan, tuple(_coefficient(a + b) for a, b in zip(self.coeffs, other.coeffs))
        )


def divisor_polytope(d: ToricDivisor) -> RatPolygon:
    """P_D = {u : <u, rho> >= -a_rho for all rays}."""
    try:
        return RatPolygon.from_halfplanes(
            [(r, -a) for r, a in zip(d.fan.rays, d.coeffs)]
        )
    except UnboundedRegion as exc:
        raise UnboundedPolytope("divisor is not nef") from exc


def ample_polytope(d: ToricDivisor) -> RatPolygon | None:
    """P_D when D is ample, else None.  D is ample iff every ray of the fan
    supports an edge of P_D of positive length, i.e. the support function
    is strictly convex at every ray."""
    try:
        p = divisor_polytope(d)
    except UnboundedPolytope:
        return None
    offsets = dict(p.lines)
    edges = all(offsets.get(r) == -a * p.scale for r, a in zip(d.fan.rays, d.coeffs))
    return p if p.dim == 2 and edges else None


def is_ample(d: ToricDivisor) -> bool:
    """True iff D is ample (see ample_polytope)."""
    return ample_polytope(d) is not None


def normal_fan(p: RatPolygon) -> Fan2:
    """Inner normals of the edges, cyclically ordered and primitive."""
    if p.dim < 2:
        raise DegeneratePolygon("normal fan needs a two-dimensional polygon")
    return Fan2.from_rays([n for n, _ in p.lines])


def divisor_from_polytope(p: RatPolygon) -> ToricDivisor:
    """The ample divisor on normal_fan(p) whose polytope is p."""
    fan = normal_fan(p)
    offsets = dict(p.halfplanes)
    return ToricDivisor.make(fan, {r: -offsets[r] for r in fan.rays})


class FlagData(NamedTuple):
    """Combinatorics of the flag given by a one-parameter subgroup.

    v is the primitive direction in N; m spans its orthogonal in M, so
    conv(0, m) is the Newton segment of the binomial cutting out the flag
    curve in the torus; cprime_coeffs are the coefficients of the
    torus-invariant replacement of that curve, and nabla_prime its nef
    polytope (the smallest polytope containing the Newton segment whose
    normal fan is refined by the ambient fan).  nabla_prime attains
    min(0, <m, r>) = -cprime at every ray r.
    """

    v: tuple
    m: tuple
    cprime_coeffs: tuple
    nabla_prime: RatPolygon


def flag_data(fan: Fan2, v) -> FlagData:
    v = int_vector(v)
    if not is_primitive(v):
        raise NonPrimitiveDirection(f"direction {v} is not primitive")
    m = rot90(v)
    cprime = tuple(-min(0, dot(m, r)) for r in fan.rays)
    nabla_prime = RatPolygon.from_halfplanes(
        [(r, min(0, dot(m, r))) for r in fan.rays]
    )
    return FlagData(v, m, cprime, nabla_prime)

