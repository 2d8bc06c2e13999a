"""Geometry of weighted finite-dimensional l_p spaces.

Duality mappings, metric and generalized (distance-like functional)
projections onto closed convex sets, the two dual cones they induce,
faces of convex sets, and the inverse face ("vision") correspondences,
with certificate-style checks for the identities that hold in this
setting and the Hilbert-space identities that fail in it.
"""

# the one copy of the version: pyproject.toml and the emitted documents read it
__version__ = "0.1.0"

from .spaces import (
    LpSpace,
    PrimalVec,
    DualVec,
    conjugate_exponent,
    norm,
    pair,
    duality_map,
    duality_map_inv,
    lyapunov,
    window_functional,
)
from .sets import (
    ConvexSet,
    Segment,
    Ray,
    Line,
    FinitelyGeneratedCone,
    Polytope,
    Ball,
    Subspace,
)
from .projections import (
    SolverOptions,
    ProjectionResult,
    metric_project,
    generalized_project,
    vi_residual_metric,
    vi_residual_generalized,
    inverse_image_member_metric,
)
from .cones import (
    Witness,
    member_metric_dual,
    member_generalized_dual,
    probe_nonconvexity_metric_dual,
    metric_double_dual_violation,
    generalized_double_dual_member,
    find_double_dual_certificate,
    IntersectionDualReport,
    intersection_dual_check_family,
    hilbert_identity_violation,
)
from .faces import (
    FaceDescription,
    face,
    face_membership,
    vision_dual_member,
    vision_primal_member,
    ClassifyResult,
    classify_point,
    FixedPointReport,
    fixed_point_check,
    VISolution,
    solve_vi,
    DualVisionIdentityReport,
    dual_vision_identity_check,
)

__all__ = [
    "LpSpace",
    "PrimalVec",
    "DualVec",
    "conjugate_exponent",
    "norm",
    "pair",
    "duality_map",
    "duality_map_inv",
    "lyapunov",
    "window_functional",
    "ConvexSet",
    "Segment",
    "Ray",
    "Line",
    "FinitelyGeneratedCone",
    "Polytope",
    "Ball",
    "Subspace",
    "SolverOptions",
    "ProjectionResult",
    "metric_project",
    "generalized_project",
    "vi_residual_metric",
    "vi_residual_generalized",
    "inverse_image_member_metric",
    "Witness",
    "member_metric_dual",
    "member_generalized_dual",
    "probe_nonconvexity_metric_dual",
    "metric_double_dual_violation",
    "generalized_double_dual_member",
    "find_double_dual_certificate",
    "IntersectionDualReport",
    "intersection_dual_check_family",
    "hilbert_identity_violation",
    "FaceDescription",
    "face",
    "face_membership",
    "vision_dual_member",
    "vision_primal_member",
    "ClassifyResult",
    "classify_point",
    "FixedPointReport",
    "fixed_point_check",
    "VISolution",
    "solve_vi",
    "DualVisionIdentityReport",
    "dual_vision_identity_check",
    "CheckRecord",
    "SuiteReport",
    "run_verification_suite",
    "run_fuzz",
    "fuzz_target_ids",
    "__version__",
]

# the suite's names resolve on first use (PEP 562), so that a single
# command, which runs no check, never imports the suite
_SUITE_NAMES = ("CheckRecord", "SuiteReport", "run_verification_suite", "run_fuzz", "fuzz_target_ids")


def __getattr__(name):
    if name in _SUITE_NAMES:
        from . import suite

        return getattr(suite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
