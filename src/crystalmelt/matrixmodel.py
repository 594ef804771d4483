"""Partition functions as stabilized Toeplitz determinants.

The symbol f(z) collects single-walker transition weights; det G_{i-j} over
an N x N block reproduces the unitary matrix integral, and for N large the
determinant stops depending on N at any fixed series truncation. We detect
that plateau by agreement of two consecutive sizes rather than guessing an
a priori bound.

Growing factorization: T_{N+1} borders T_N with one row and one column, so
its Doolittle factors T_N = L_N U_N (L unit lower, U upper triangular) extend
by one L row, one U column and one pivot u_{N+1}, and
det T_{N+1} = det T_N * u_{N+1}. All sizes tried therefore share a single
elimination. It needs no pivoting. Lemma: at q = 0 every symbol built here
is 1 + z (all other factors reduce to 1), so G_0 = G_1 = 1 and G_m = 0
otherwise mod q; T_N is then unit lower-bidiagonal mod q, every leading minor
is 1 mod q, and each pivot u_N = minor_N / minor_{N-1} is a unit of the local
ring. A symbol whose leading pivot is not a unit is
rejected up front with StabilizationFailureError.

Window bookkeeping: every factor except the single (1 + z) carries at least
one unit of q-degree per unit of |z|-power, so z-exponents beyond D + 1 have
identically zero coefficients at truncation D. Multiplying the lone lax
factor last keeps the intermediate products strict and makes the window clip
lossless.

Division lemma: a denominator factor 1 - u z^{+-1} with deg u >= 1 has the
strict inverse sum_j u^j z^{+-j}, so a strict symbol divided by it stays
strict: its z^m coefficient has valuation >= |m|, hence vanishes for
|m| > D. The window clip at D + 1 therefore drops nothing at any stage, and
dividing by the denominator one factor at a time (_divide_linear) gives
exactly the truncated quotient by the whole denominator; no general symbol
inverse is needed.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .errors import StabilizationFailureError
from .series import (
    LaurentSymbol,
    TruncatedSeries,
    binomial_factor,
    product_over_k,
)


class MatrixModelResult(NamedTuple):
    """Outcome of a stabilized determinant run.

    value is the determinant shared by sizes stabilized_at and
    stabilized_at + 1; history maps each tried N to its determinant, kept for
    diagnostics and for the widening checks in the test suite.
    """

    value: TruncatedSeries
    stabilized_at: int
    history: dict


def _times_linear(coeffs: dict, cutoff: int, window: int, zpow: int, exps, sign: int) -> dict:
    """coeffs * (1 + sign * x^exps * z^zpow) as a shift-and-add, clipped to the
    window like the symbol product; coeffs maps each z-power to a plain
    {exponents: coefficient} dict and is not modified. Multiplies by 1 when
    exps exceeds the cutoff, where the factor is 1 at this truncation."""
    deg = sum(exps)
    out = {m: dict(terms) for m, terms in coeffs.items()}
    if deg > cutoff:
        return out
    room = cutoff - deg
    for m, terms in coeffs.items():
        p = m + zpow
        if abs(p) > window:
            continue
        into = out.setdefault(p, {})
        for e, c in terms.items():
            if sum(e) > room:
                continue
            key = tuple(map(add, e, exps))
            c = into.get(key, 0) + sign * c
            if c:
                into[key] = c
            else:
                del into[key]
    return out


def _divide_linear(coeffs: dict, cutoff: int, window: int, zpow: int, exps) -> dict:
    """coeffs / (1 - x^exps * z^zpow) for zpow = +-1, in the form and window of
    _times_linear; coeffs is not modified. The quotient g solves
    g = f + x^exps z^zpow g, so g_m = f_m + x^exps g_{m - zpow}, solved one
    z-power at a time in the direction of zpow until the carry runs out or
    leaves the window. exps must have positive degree (the symbols here are
    strict); returns a copy when it exceeds the cutoff, where the factor is 1.
    """
    deg = sum(exps)
    if deg > cutoff:
        return {m: dict(terms) for m, terms in coeffs.items()}
    room = cutoff - deg
    m, last = (min(coeffs), max(coeffs)) if zpow > 0 else (max(coeffs), min(coeffs))
    out = {}
    carry = {}
    while abs(m) <= window:
        g = dict(coeffs.get(m, {}))
        for e, c in carry.items():
            c += g.get(e, 0)
            if c:
                g[e] = c
            else:
                del g[e]
        if g:
            out[m] = g
        carry = {tuple(map(add, e, exps)): c for e, c in g.items() if sum(e) <= room}
        if not carry and (m - last) * zpow >= 0:
            break
        m += zpow
    return out


def _to_symbol(num_vars: int, cutoff: int, window: int, coeffs: dict) -> LaurentSymbol:
    return LaurentSymbol(
        num_vars,
        cutoff,
        window,
        {m: TruncatedSeries(num_vars, cutoff, terms) for m, terms in coeffs.items()},
    )


def c3_symbol(cutoff: int) -> LaurentSymbol:
    """Hopping weights for plane partitions: prod_k (1+z q^k)(1+z^-1 q^k), k >= 1,
    times the lax factor (1 + z). Each factor is applied as a shift-and-add."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    window = cutoff + 1
    f = {0: {(0,): 1}}
    for k in range(1, cutoff + 1):
        f = _times_linear(f, cutoff, window, 1, (k,), 1)
        f = _times_linear(f, cutoff, window, -1, (k,), 1)
    f = _times_linear(f, cutoff, window, 1, (0,), 1)
    return _to_symbol(1, cutoff, window, f)


def conifold_symbol(n: int, cutoff: int) -> LaurentSymbol:
    """Hopping weights for the two-node chamber theta_n, in (q0, q1).

    Strict part: prod_k (1 + q0^k q1^k z)(1 + q0^k q1^k z^-1) over k >= 1,
    divided by prod_k (1 - q0^k q1^(k+1) z)(1 - q0^(k+1) q1^k z^-1) over
    k >= 0, then the n chamber factors (1 - q0^k q1^(k-1) z^-1), k = 1..n.
    Every linear factor is applied as a shift-and-add and every denominator
    factor divided out in turn by _divide_linear; each of these is exact
    because the partial products stay strict (module docstring). The lax
    (1 + z) comes last.
    """
    if n < 0:
        raise ValueError("chamber index n must be >= 0")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    window = cutoff + 1
    f = {0: {(0, 0): 1}}
    for k in range(1, cutoff // 2 + 1):
        f = _times_linear(f, cutoff, window, 1, (k, k), 1)
        f = _times_linear(f, cutoff, window, -1, (k, k), 1)
    for k in range((cutoff + 1) // 2):
        f = _divide_linear(f, cutoff, window, 1, (k, k + 1))
        f = _divide_linear(f, cutoff, window, -1, (k + 1, k))
    for k in range(1, n + 1):
        f = _times_linear(f, cutoff, window, -1, (k, k - 1), -1)
    f = _times_linear(f, cutoff, window, 1, (0, 0), 1)
    return _to_symbol(2, cutoff, window, f)


def prefactor_cn(n: int, cutoff: int) -> TruncatedSeries:
    """Ratio between the crystal sum and the determinant for chamber theta_n:

        C_n = prod_{k=1}^{n} (1 - q^k)^(-k)
            * prod_{k>n} (1 + q0^k q1^(k-1))^n (1 - q^k)^(-n)

    with q = q0*q1. C_0 = 1, and for n at or beyond the cutoff only the first
    product survives, collapsing to MacMahon's function in q.
    """
    if n < 0:
        raise ValueError("chamber index n must be >= 0")
    out = TruncatedSeries.one(2, cutoff)
    for k in range(1, min(n, cutoff) + 1):
        out = out * binomial_factor(2, cutoff, (k, k), -k, sign=-1)
    if n > 0:
        out = out * product_over_k(
            lambda j: binomial_factor(2, cutoff, (n + j, n + j - 1), n, sign=1)
            * binomial_factor(2, cutoff, (n + j, n + j), -n, sign=-1),
            cutoff,
        )
    return out


def _toeplitz_pivots(f: LaurentSymbol, degree: int):
    """Yield (N, u_N) for N = 1, 2, ...: the Doolittle pivots of the growing
    sections T_N = [G_{i-j}] of f, computed modulo total degree > degree.

    lower[i] holds row i of L below the diagonal and upper[j] column j of U
    above it; a non-unit pivot raises StabilizationFailureError.
    """
    zero = TruncatedSeries.zero(f.num_vars, degree)
    g = {m: c.truncate(degree) for m, c in f.coeffs.items()}

    def residual(start, xs, ys):
        """start - sum(x * y), skipping zero factors."""
        acc = start
        for x, y in zip(xs, ys):
            if not x.is_zero() and not y.is_zero():
                acc = acc - x * y
        return acc

    lower, upper, inverses = [], [], []
    n = 0
    while True:
        col = []
        for i in range(n):
            col.append(residual(g.get(i - n, zero), lower[i], col))
        row = []
        for j in range(n):
            row.append(residual(g.get(n - j, zero), row, upper[j]) * inverses[j])
        pivot = residual(g.get(0, zero), row, col)
        n += 1
        if pivot.constant_term() not in (1, -1):
            raise StabilizationFailureError(
                f"Toeplitz section of size {n} has a pivot with constant term "
                f"{pivot.constant_term()}, not a unit"
            )
        lower.append(row)
        upper.append(col)
        inverses.append(pivot.invert())
        yield n, pivot


def stabilized_toeplitz(f: LaurentSymbol, degree: int) -> MatrixModelResult:
    """Grow N from degree + 1 until two consecutive determinants agree modulo
    total degree `degree`; a run that reaches N = 4 * (degree + 2) without a
    plateau raises StabilizationFailureError.

    One growing LU factorization supplies every size's determinant as the
    running product of its pivots (see the module docstring)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if f.cutoff < degree:
        raise ValueError("symbol truncated below the requested degree")
    cap = 4 * (degree + 2)
    history = {}
    det = TruncatedSeries.one(f.num_vars, degree)
    for size, pivot in _toeplitz_pivots(f, degree):
        det = det * pivot
        if size <= degree:
            continue
        history[size] = det
        if size - 1 in history and det == history[size - 1]:
            return MatrixModelResult(det, size - 1, history)
        if size == cap:
            break
    raise StabilizationFailureError(
        f"Toeplitz determinant did not stabilize by N = {cap}"
    )
