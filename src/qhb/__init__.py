"""Conformal barycenters of point sets and regions in the quaternionic
hyperbolic ball, built on exact Hua involutions and the Sp(n,1) action."""

from .barycenter import (
    SolverConfig,
    SolverResult,
    WeightedPoints,
    energy,
    residual,
    solve,
    weighted_points,
)
from .errors import (
    DegenerateGeodesic,
    DimensionMismatch,
    DivisionByZero,
    EmptyData,
    EmptyRegion,
    InvalidProfile,
    NonFinite,
    NotInBall,
    QhbError,
    Singular,
)
from .geometry import (
    ConvexityProfile,
    GeodesicChart,
    ball_volume,
    convexity_profile,
    convexity_second_derivative,
    cosh2_half_distance,
    distance,
    geodesic_between,
    geodesic_chart,
    geodesic_point,
    measure_density,
)
from .mobius import (
    HuaInvolution,
    SpMatrix,
    hua_apply,
    hua_fixed_point,
    hua_matrix,
    hua_new,
    intertwine_factor,
    jacobian_det,
    sp_apply,
    sp_from_json,
    sp_inverse,
    sp_to_json,
)
from .quaternions import inner, mat_apply, qinv, qmul
from .regions import (
    RegionResult,
    RegionSpec,
    SampleSet,
    euclidean_ball,
    geodesic_ball,
    indicator_region,
    region_barycenter,
    region_from_json,
    region_to_json,
    sample_region,
)

__version__ = "0.1.0"
