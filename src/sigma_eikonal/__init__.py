"""Distance fields, singular-set detection, and inner-ball diagnostics."""

from .geometry import (
    Ball,
    Box,
    ConvexPolytope,
    Ellipse,
    GeometryError,
    GraphHypersurface,
    OffsetBody,
    SampledSurface,
    load_shape,
    make_random_polytope,
    save_shape,
    shape_from_spec,
)
from .projection import (
    ProjectionError,
    ProjectionResult,
    default_tau_multi,
    project,
)
from .distance import (
    GridError,
    GridSpec,
    ScalarField,
    SingularPointError,
    ZeroDistanceError,
    distance_field,
    gradient_by_projection,
    gradient_field,
    grid_covering,
    read_field,
    signed_distance_field,
    write_field,
)
from .eikonal import (
    EikonalError,
    EikonalProblem,
    ResidualReport,
    fast_march,
    problem_from_shape,
    residuals,
    upwind_residual,
    write_residual_report,
)
from .singular import (
    DensityReport,
    DetectionError,
    SingularMask,
    coverage_density,
    detect_footjump,
    detect_gradjump,
    detect_multiproj,
    inclusion_violations,
    mask_agreement,
)
from .innerball import (
    EquivalenceReport,
    InjectivityReport,
    InnerBallError,
    InnerBallProfile,
    UniformConditionReport,
    inner_ball_profile,
    inner_ball_radius,
    normal_map_injectivity,
    theorem_equivalence_check,
    uniform_condition_report,
)

__version__ = "0.1.0"

__all__ = [
    "Ball", "Box", "ConvexPolytope", "Ellipse", "GeometryError",
    "GraphHypersurface", "OffsetBody", "SampledSurface", "load_shape",
    "make_random_polytope", "save_shape", "shape_from_spec",
    "ProjectionError", "ProjectionResult", "default_tau_multi", "project",
    "GridError", "GridSpec", "ScalarField", "SingularPointError",
    "ZeroDistanceError", "distance_field",
    "gradient_by_projection", "gradient_field", "grid_covering",
    "read_field", "signed_distance_field", "write_field",
    "EikonalError", "EikonalProblem", "ResidualReport", "fast_march",
    "problem_from_shape", "residuals", "upwind_residual",
    "write_residual_report",
    "DensityReport", "DetectionError", "SingularMask", "coverage_density",
    "detect_footjump", "detect_gradjump", "detect_multiproj",
    "inclusion_violations", "mask_agreement",
    "EquivalenceReport", "InjectivityReport", "InnerBallError",
    "InnerBallProfile", "UniformConditionReport", "inner_ball_profile",
    "inner_ball_radius", "normal_map_injectivity",
    "theorem_equivalence_check", "uniform_condition_report",
]
