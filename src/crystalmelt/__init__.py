"""Exact partition functions of melting crystals.

Everything here works over exact integer (or rational) arithmetic: truncated
multivariate series for the counting functions, Fractions for the curve
coefficients. The same partition function can be computed four independent
ways (direct enumeration, closed product, stabilized Toeplitz determinant,
non-intersecting walker determinant) and verify_all cross-checks them all.

Importing the package imports none of its modules. Each name below is bound
the first time it is read (a PEP 562 module __getattr__): its module is
imported then, and the value is kept in the package's namespace, so a
process loads only the modules it uses. ``from crystalmelt import *`` binds
every name in __all__, and a submodule (``from crystalmelt import engines``)
is imported as usual.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in (
        ("chambers", (
            "ChamberSpec", "c3_chamber", "chamber_weight", "chamber_weights",
            "conifold_theta", "sigma", "theta_inverse", "theta_value",
        )),
        ("enumeration", ("enumerate_z", "enumerate_z_rows", "enumerate_z_transposed")),
        ("errors", (
            "CrystalMeltError", "DimensionError", "InvalidGraphError",
            "NonTerminatingProductError", "NotInvertibleError", "OracleTooLargeError",
            "SingularParametersError", "StabilizationFailureError",
            "UnsupportedChamberError",
        )),
        ("lgv", (
            "WeightedDag", "lgv_det", "nonintersecting_bruteforce", "path_matrix",
            "profile_bijection_check", "random_layered_dag", "walker_graph",
        )),
        ("matrixmodel", (
            "MatrixModelResult", "chamber_prefactor", "chamber_symbol", "stabilized_toeplitz",
        )),
        ("partitions", ("interlace_minus", "interlace_plus")),
        ("products", (
            "chamber_product", "conifold_product", "macmahon", "macmahon_two_var",
            "spp_top_squared", "wall_factor",
        )),
        ("serialize", (
            "chamber_from_json_dict", "chamber_to_json_dict", "report_to_json", "series_to_tsv",
        )),
        ("series", (
            "LaurentSymbol", "TruncatedSeries", "binomial_factor", "det_division_free",
            "product_over_k",
        )),
        ("spectral", (
            "CurveCoefficients", "CurveParams", "mirror_map", "random_curve_params",
            "s3_equivariance_check", "spp_identity_squared", "spp_limit_check",
        )),
        ("verify", ("CriterionResult", "verify_all")),
    )
    for name in names
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})


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
