"""Exact partition functions of melting crystals.

Everything here works over exact integer (or rational) arithmetic: truncated
multivariate series for the counting functions, Fractions for the curve
coefficients. The same partition function can be computed four independent
ways (direct enumeration, closed product, stabilized Toeplitz determinant,
non-intersecting walker determinant) and verify_all cross-checks them all.
"""

from .chambers import (
    ChamberSpec,
    c3_chamber,
    chamber_weight,
    chamber_weights,
    conifold_index,
    conifold_theta,
    peak_slices,
    sigma,
    slice_rule,
    theta_inverse,
    theta_value,
)
from .cli import JobConfig, main, run_job
from .enumeration import (
    box_budget,
    enumerate_z,
    enumerate_z_rows,
    enumerate_z_transposed,
    sweep_window,
)
from .errors import (
    CrystalMeltError,
    DimensionError,
    InvalidGraphError,
    NonTerminatingProductError,
    NotInvertibleError,
    OracleTooLargeError,
    SingularParametersError,
    StabilizationFailureError,
    UnsupportedChamberError,
)
from .lgv import (
    WeightedDag,
    lgv_det,
    nonintersecting_bruteforce,
    path_matrix,
    profile_bijection_check,
    random_layered_dag,
    walker_graph,
)
from .matrixmodel import (
    MatrixModelResult,
    c3_symbol,
    conifold_symbol,
    prefactor_cn,
    stabilized_toeplitz,
)
from .partitions import (
    as_partition,
    enumerate_partitions,
    interlace_minus,
    interlace_plus,
    size,
    transpose,
)
from .products import (
    conifold_product,
    macmahon,
    macmahon_two_var,
    spp_top_squared,
    wall_factor,
)
from .serialize import (
    chamber_from_json_dict,
    chamber_to_json_dict,
    partition_from_json,
    partition_to_json,
    series_from_json_dict,
    series_to_json_dict,
    series_to_tsv,
)
from .series import (
    LaurentSymbol,
    TruncatedSeries,
    binomial_factor,
    det_division_free,
    product_over_k,
    toeplitz_det,
)
from .spectral import (
    CurveCoefficients,
    CurveParams,
    mirror_map,
    random_curve_params,
    s3_equivariance_check,
    spp_identity_squared,
    spp_limit_check,
)
from .verify import CriterionResult, verify_all

__version__ = "0.1.0"

__all__ = [
    "ChamberSpec",
    "CriterionResult",
    "CrystalMeltError",
    "CurveCoefficients",
    "CurveParams",
    "DimensionError",
    "InvalidGraphError",
    "JobConfig",
    "LaurentSymbol",
    "MatrixModelResult",
    "NonTerminatingProductError",
    "NotInvertibleError",
    "OracleTooLargeError",
    "SingularParametersError",
    "StabilizationFailureError",
    "TruncatedSeries",
    "UnsupportedChamberError",
    "WeightedDag",
    "as_partition",
    "binomial_factor",
    "box_budget",
    "c3_chamber",
    "c3_symbol",
    "chamber_from_json_dict",
    "chamber_to_json_dict",
    "chamber_weight",
    "chamber_weights",
    "conifold_index",
    "conifold_product",
    "conifold_symbol",
    "conifold_theta",
    "det_division_free",
    "enumerate_partitions",
    "enumerate_z",
    "enumerate_z_rows",
    "enumerate_z_transposed",
    "interlace_minus",
    "interlace_plus",
    "lgv_det",
    "macmahon",
    "macmahon_two_var",
    "main",
    "mirror_map",
    "nonintersecting_bruteforce",
    "partition_from_json",
    "partition_to_json",
    "path_matrix",
    "peak_slices",
    "prefactor_cn",
    "product_over_k",
    "profile_bijection_check",
    "random_curve_params",
    "random_layered_dag",
    "run_job",
    "s3_equivariance_check",
    "series_from_json_dict",
    "series_to_json_dict",
    "series_to_tsv",
    "sigma",
    "size",
    "slice_rule",
    "spp_identity_squared",
    "spp_limit_check",
    "spp_top_squared",
    "stabilized_toeplitz",
    "sweep_window",
    "theta_inverse",
    "theta_value",
    "toeplitz_det",
    "transpose",
    "verify_all",
    "walker_graph",
]
