"""Exact-rational checks of the spectral-curve identities.

The curve e^{x+y} + e^x + e^y + Q1 e^{2x} + Q2 e^{2y} + Q3 = 0 has its
coefficients expressed in the model parameters (Q, mu, eps2); everything here
evaluates those expressions with Fraction arithmetic, no floats and no
tolerances anywhere.
"""

from fractions import Fraction
from typing import NamedTuple

from .chambers import conifold_theta
from .enumeration import enumerate_z
from .errors import SingularParametersError, UnsupportedChamberError
from .matrixmodel import chamber_prefactor
from .products import spp_top_squared
from .series import binomial_factor, product_over_k


class CurveParams(NamedTuple):
    """Free positive-rational inputs (Q, mu, eps2); no exponentials are ever
    evaluated, the triple stands in for (e^{-tau}, Q^{-1}q^n, e^{-T})."""

    Q: Fraction
    mu: Fraction
    eps2: Fraction


class CurveCoefficients(NamedTuple):
    Q1: Fraction
    Q2: Fraction
    Q3: Fraction


def mirror_map(p: CurveParams) -> CurveCoefficients:
    """The three curve coefficients as exact rationals:

        Q1 = eps2 (1 + mu Q) / [(1 + mu eps2)(1 + Q eps2)]
        Q2 = mu (1 + Q eps2) / [(1 + mu Q)(1 + mu eps2)]
        Q3 = Q (1 + mu eps2) / [(1 + eps2 Q)(1 + mu Q)]

    Each of the three binomials appears in exactly two denominators. With
    Q = a/b, mu = c/d and eps2 = f/g in lowest terms (b, d, g > 0) every
    binomial is a cross sum over a product of denominators, e.g.
    1 + mu eps2 = (dg + cf)/(dg), and those products cancel, so

        Q1 = fg (bd + ac) / [(dg + cf)(bg + af)]

    and likewise for Q2 and Q3: integer arithmetic and one Fraction per
    coefficient (_mirror_pairs). A binomial vanishes exactly when its cross
    sum does.
    """
    return CurveCoefficients(*(Fraction(n, d) for n, d in _mirror_pairs(p)))


def _mirror_pairs(p: CurveParams):
    """mirror_map's three coefficients as (numerator, denominator) integer
    pairs, not reduced; every denominator is nonzero."""
    a, b = _ratio(p.Q)
    c, d = _ratio(p.mu)
    f, g = _ratio(p.eps2)
    s_me = d * g + c * f
    s_qe = b * g + a * f
    s_mq = b * d + a * c
    if s_me == 0 or s_qe == 0 or s_mq == 0:
        raise SingularParametersError("a mirror-map denominator vanishes")
    return (
        (f * g * s_mq, s_me * s_qe),
        (c * d * s_qe, s_mq * s_me),
        (a * b * s_me, s_qe * s_mq),
    )


def _ratio(x):
    """Numerator and positive denominator of x in lowest terms; a Fraction
    gives its own, anything else is made a Fraction first."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


class _EquivarianceFailure:
    """Falsy result naming the transposition that broke the symmetry."""

    def __init__(self, permutation):
        self.permutation = permutation

    def __bool__(self):
        return False

    def __repr__(self):
        return f"EquivarianceFailure({self.permutation!r})"


def s3_equivariance_check(p: CurveParams):
    """True iff every transposition of (eps2, mu, Q) permutes (Q1, Q2, Q3)
    the same way: mu<->Q fixes Q1 and swaps Q2<->Q3, eps2<->mu swaps Q1<->Q2
    and fixes Q3, eps2<->Q swaps Q1<->Q3 and fixes Q2. Coefficients are
    compared as _mirror_pairs' integer pairs, n/d = m/e iff n e = m d, so no
    coefficient is made a Fraction."""
    q1, q2, q3 = _mirror_pairs(p)
    cases = (
        ("mu<->Q", CurveParams(p.mu, p.Q, p.eps2), (q1, q3, q2)),
        ("eps2<->mu", CurveParams(p.Q, p.eps2, p.mu), (q2, q1, q3)),
        ("eps2<->Q", CurveParams(p.eps2, p.mu, p.Q), (q3, q2, q1)),
    )
    for name, params, expected in cases:
        for (n, d), (m, e) in zip(_mirror_pairs(params), expected):
            if n * e != m * d:
                return _EquivarianceFailure(name)
    return True


def spp_limit_check(p: CurveParams) -> bool:
    """Does the eps2 = 0 curve match the suspended-pinch-point curve

        mu e^{2y} + e^{x+y} + e^x + (1 + Q mu) e^y + Q = 0

    after rescaling e^x -> A e^x, e^y -> B e^y and an overall factor? The
    scale factors are solved from the e^{x+y}, e^x, e^y coefficients and then
    verified against the remaining three; A and B must be nonzero rationals.
    """
    q, mu = Fraction(p.Q), Fraction(p.mu)
    limit = mirror_map(CurveParams(p.Q, p.mu, Fraction(0)))
    # coefficient order: e^{x+y}, e^x, e^y, e^{2x}, e^{2y}, 1
    c = (Fraction(1), Fraction(1), Fraction(1), limit.Q1, limit.Q2, limit.Q3)
    s = (Fraction(1), Fraction(1), 1 + q * mu, Fraction(0), mu, q)
    overall = (s[1] / c[1]) * (s[2] / c[2]) / (s[0] / c[0])
    if overall == 0:
        return False
    a = s[1] / (overall * c[1])
    b = s[2] / (overall * c[2])
    if a == 0 or b == 0:
        return False
    transformed = (
        overall * a * b * c[0],
        overall * a * c[1],
        overall * b * c[2],
        overall * a * a * c[3],
        overall * b * b * c[4],
        overall * c[5],
    )
    return transformed == s


def _spp_identity_sides(n: int, degree: int):
    """Both sides of the squared identity, for callers that need the series."""
    if n < 1:
        raise UnsupportedChamberError("the squared identity is exercised at n >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    spec = conifold_theta(n)
    lhs = enumerate_z(spec, degree) * chamber_prefactor(spec, degree).invert()
    lhs = lhs * lhs
    rhs = spp_top_squared(n, degree) * product_over_k(
        lambda k: binomial_factor(2, degree, (k, k), k, sign=-1), degree
    )
    return lhs, rhs


def spp_identity_squared(n: int, degree: int) -> bool:
    """Exact truncated identity [Z(theta_n)/C_n]^2 = spp_top_squared(n) * prod (1-q^k)^k."""
    lhs, rhs = _spp_identity_sides(n, degree)
    return lhs == rhs


def random_curve_params(rng) -> CurveParams:
    """Positive rational triple from an rng, for the randomized suites."""
    def frac():
        return Fraction(rng.randint(1, 40), rng.randint(1, 40))

    return CurveParams(frac(), frac(), frac())
