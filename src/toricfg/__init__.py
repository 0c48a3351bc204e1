"""Exact-arithmetic toolkit for valuation semigroups of ample divisors on
toric surfaces with non-toric one-parameter-subgroup flags: colon
polytopes, Newton-Okounkov bodies, pairing-one decomposability tests,
and finite-generation verdicts, cross-checked by brute-force oracles."""

from types import ModuleType as _ModuleType

from .cones import (
    Cone2,
    NotInInterior,
    NotPointed,
    cone,
    dual_cone,
    exists_pairing_one,
    halfplane,
    hilbert_basis,
    is_strongly_decomposable,
    ray,
)
from .criterion import (
    ConstructionFailed,
    DegenerateSide,
    FGVerdict,
    SegmentData,
    construct_bad_divisor,
    failing_cones,
    fg_for_all_divisors,
    is_finitely_generated,
    lifting_table,
    max_segment,
    scan_directions,
    sigma_cones,
    vertex_lifts,
)
from .fans import (
    Fan2,
    FlagData,
    InvalidFan,
    NonPrimitiveDirection,
    ToricDivisor,
    UnboundedPolytope,
    divisor_from_polytope,
    divisor_polytope,
    flag_data,
    glued_nef_polytope,
    is_ample,
    normal_fan,
)
from .geometry import (
    DegeneratePolygon,
    RatPolygon,
    UnboundedRegion,
    colon,
    lattice_points,
    minkowski_sum,
    project_interval,
    width,
)
from .semigroup import (
    DegenerateTheta,
    FlagContext,
    NOBody,
    NotAmple,
    SemigroupSlice,
    cut_construction,
    d_bar,
    d_of_q,
    e_bar,
    make_context,
    newton_okounkov_body,
    q_hat,
    semigroup_slice,
    theta,
    theta_extremal,
    xi_interval,
)

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
