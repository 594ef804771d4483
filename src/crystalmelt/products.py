"""Closed-form infinite products for the melting-crystal partition functions.

Every chamber (L, rho, theta) has one product over its root data (Nagao
arXiv:0809.2994; Sułkowski arXiv:0910.5485), and chamber_product computes it:

    Z_theta = M(q)^L * prod_alpha (1 - s_alpha x^alpha)^(-s_alpha * alpha_0)

with q = q0*...*q_(L-1) and M(q)^L = prod_k (1 - q^k)^(-L*k).

- alpha runs over the real roots: the residue-count vectors of the index
  ranges [a, b) with a in 0..L-1 and b - a not divisible by L, and x^alpha
  is the monomial with those exponents. alpha_0 counts the indices of
  residue 0; roots with alpha_0 = 0 contribute nothing.
- The sign rule: s_alpha = +1 (a bosonic (-2,0) curve) when
  rho[(a-1) mod L] = rho[(b-1) mod L], else s_alpha = -1 (a fermionic
  (-1,-1) curve).
- The inversion set: for half-integers i < j with i in 1/2..L-1/2 and
  theta(i) > theta(j), the root counting the residues of the half-integers
  in (i, j] is left out. Crossing one wall adds or removes exactly one
  root of that set, so neighbouring chambers differ by one factor.

macmahon (c3), macmahon_two_var, conifold_product (theta_n) and wall_factor
write out instances of the same formula by hand; they stay as independent
references for the tests and the demos. Everything is assembled from
binomial factors (1 + sign * x^v)^e expanded exactly, so the results are
bit-identical to what the enumeration engine counts.
"""

from __future__ import annotations

from .chambers import residue_counts, theta_value
from .errors import UnsupportedChamberError
from .series import TruncatedSeries, binomial_factor, product_over_k


def _inversion_roots(spec, degree):
    """The roots of theta's inversion set (module docstring) of total degree at
    most degree, as residue counts: the root of a pair (i, j) has degree j - i."""
    L = spec.L
    roots = set()
    for i2 in range(1, 2 * L, 2):
        above = theta_value(spec, i2)
        for j2 in range(i2 + 2, i2 + 2 * degree + 1, 2):
            if above > theta_value(spec, j2):
                roots.add(residue_counts((i2 + 1) // 2, (j2 + 1) // 2, L))
    return roots


def chamber_product(spec, degree: int) -> TruncatedSeries:
    """Z_theta of any chamber from its root data (module docstring).

    The roots alpha + k*delta over one finite root share their sign; each
    such family is multiplied out on its own while it is still sparse.
    """
    L = spec.L
    z = product_over_k(
        lambda k: binomial_factor(L, degree, (k,) * L, -L * k, sign=-1), degree
    )
    skipped = _inversion_roots(spec, degree)
    for a in range(L):
        for length in range(1, L):
            s = 1 if spec.rho[(a - 1) % L] == spec.rho[(a + length - 1) % L] else -1
            family = TruncatedSeries.one(L, degree)
            for b in range(a + length, a + degree + 1, L):
                alpha = residue_counts(a, b, L)
                if alpha[0] and alpha not in skipped:
                    family = family * binomial_factor(L, degree, alpha, -s * alpha[0], sign=-s)
            z = z * family
    return z


def macmahon(cutoff: int) -> TruncatedSeries:
    """MacMahon's generating function prod_k (1 - q^k)^(-k), plane partitions by volume."""
    return product_over_k(
        lambda k: binomial_factor(1, cutoff, (k,), -k, sign=-1), cutoff
    )


def macmahon_two_var(cutoff: int) -> TruncatedSeries:
    """MacMahon's function in the diagonal variable q = q0*q1."""
    return product_over_k(
        lambda k: binomial_factor(2, cutoff, (k, k), -k, sign=-1), cutoff
    )


def conifold_product(n: int, cutoff: int) -> TruncatedSeries:
    """Chamber theta_n partition function as an explicit product.

        M(q)^2 * prod_{k>=1} (1 + q0^k q1^(k+1))^k * prod_{k>n} (1 + q0^k q1^(k-1))^k

    with q = q0*q1. n = 0 is the resolved side; raising n eats the small-k
    factors of the last product one wall at a time.
    """
    if n < 0:
        raise ValueError("chamber index n must be >= 0")
    z = macmahon_two_var(cutoff)
    z = z * z
    z = z * product_over_k(
        lambda k: binomial_factor(2, cutoff, (k, k + 1), k, sign=1), cutoff
    )
    z = z * product_over_k(
        lambda k: binomial_factor(2, cutoff, (n + k, n + k - 1), n + k, sign=1),
        cutoff,
    )
    return z


def wall_factor(n: int, cutoff: int) -> TruncatedSeries:
    """The single factor (1 + q0^n q1^(n-1))^n separating theta_(n-1) from theta_n."""
    if n < 1:
        raise ValueError("wall index must be >= 1")
    return binomial_factor(2, cutoff, (n, n - 1), n, sign=1)


def spp_top_squared(n: int, cutoff: int) -> TruncatedSeries:
    """Square of the suspended-pinch-point closed-form series, at mu = q0^n q1^(n-1).

        prod_{k>=1} (1 + Q q^k)^(2k) (1 + mu q^k)^(2k)
                    / [ (1 - q^k)^(3k) (1 - mu Q q^k)^(2k) ]

    Squaring keeps every exponent integral. The factor signs follow the
    counting convention that matches the chamber partition functions; note
    mu*Q*q^k collapses to q^(n+k). Requires n >= 1 so that mu is an honest
    monomial; at n = 0 the substitution would need a negative q1 exponent.
    """
    if n < 1:
        raise UnsupportedChamberError(
            "spp_top_squared needs n >= 1 (mu = q0^n q1^(n-1) must be a monomial)"
        )
    z = product_over_k(
        lambda k: binomial_factor(2, cutoff, (k, k + 1), 2 * k, sign=1), cutoff
    )
    z = z * product_over_k(
        lambda k: binomial_factor(2, cutoff, (n + k, n + k - 1), 2 * k, sign=1),
        cutoff,
    )
    z = z * product_over_k(
        lambda k: binomial_factor(2, cutoff, (k, k), -3 * k, sign=-1), cutoff
    )
    z = z * product_over_k(
        lambda k: binomial_factor(2, cutoff, (n + k, n + k), -2 * k, sign=-1), cutoff
    )
    return z
