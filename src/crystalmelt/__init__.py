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
    conifold_theta,
    sigma,
    theta_inverse,
    theta_value,
)
from .enumeration import (
    enumerate_z,
    enumerate_z_rows,
    enumerate_z_transposed,
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
    chamber_prefactor,
    chamber_symbol,
    stabilized_toeplitz,
)
from .partitions import interlace_minus, interlace_plus
from .products import (
    chamber_product,
    conifold_product,
    macmahon,
    macmahon_two_var,
    spp_top_squared,
    wall_factor,
)
from .serialize import (
    chamber_from_json_dict,
    chamber_to_json_dict,
    report_to_json,
    series_to_tsv,
)
from .series import (
    LaurentSymbol,
    TruncatedSeries,
    binomial_factor,
    det_division_free,
    product_over_k,
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
    "binomial_factor",
    "c3_chamber",
    "chamber_from_json_dict",
    "chamber_prefactor",
    "chamber_product",
    "chamber_symbol",
    "chamber_to_json_dict",
    "chamber_weight",
    "chamber_weights",
    "conifold_product",
    "conifold_theta",
    "det_division_free",
    "enumerate_z",
    "enumerate_z_rows",
    "enumerate_z_transposed",
    "interlace_minus",
    "interlace_plus",
    "lgv_det",
    "macmahon",
    "macmahon_two_var",
    "mirror_map",
    "nonintersecting_bruteforce",
    "path_matrix",
    "product_over_k",
    "profile_bijection_check",
    "random_curve_params",
    "random_layered_dag",
    "report_to_json",
    "s3_equivariance_check",
    "series_to_tsv",
    "sigma",
    "spp_identity_squared",
    "spp_limit_check",
    "spp_top_squared",
    "stabilized_toeplitz",
    "theta_inverse",
    "theta_value",
    "verify_all",
    "walker_graph",
]
