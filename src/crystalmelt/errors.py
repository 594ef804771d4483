"""Exceptions shared across the library.

The CLI maps these onto exit codes: run-time guards (the Toeplitz size
certificate, oracle size, product termination) exit 3, everything else here
exits 2.
"""


class CrystalMeltError(Exception):
    """Base class for all library errors."""


class DimensionError(CrystalMeltError):
    """Mixed series with different variable counts or cutoffs."""


class NotInvertibleError(CrystalMeltError):
    """Series inversion requires constant term +1 or -1."""


class NonTerminatingProductError(CrystalMeltError):
    """Infinite product whose factors stop raising the minimum degree."""


class UnsupportedChamberError(CrystalMeltError):
    """Conifold index below the range of spp_top_squared and
    spp_identity_squared, which need n >= 1."""


class StabilizationFailureError(CrystalMeltError):
    """A Toeplitz section has a non-unit pivot, or its determinant changes
    from the requested size to the next one."""


class OracleTooLargeError(CrystalMeltError):
    """Brute-force path enumeration would exceed the safety guard."""


class InvalidGraphError(CrystalMeltError):
    """Path-sum graph contains an oriented cycle."""


class SingularParametersError(CrystalMeltError):
    """Curve parameters make a mirror-map denominator vanish."""
