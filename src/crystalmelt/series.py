"""Exact truncated power-series ring and the z-Laurent symbol type.

Everything downstream computes in Z[[q_0, ..., q_{L-1}]] / (total degree > D),
with arbitrary-precision integer coefficients and no floating point. The ring
has zero divisors (q^D * q == 0), so general division is unavailable, but it
is local: a series is a unit exactly when its constant term is +-1, and then
its inverse is exact (TruncatedSeries.invert). Gaussian elimination that only
ever pivots on such units is therefore exact and costs O(N^3) multiplies; the
determinant routine below does that and leaves only a block without any unit
pivot to the division-free Berkowitz recursion. The same elimination
(_unit_pivots) serves det_division_free and the Toeplitz size certificate
(matrixmodel.stabilized_toeplitz).

Clean-terms invariant: a series stores only exponent tuples of length
num_vars with non-negative entries and total degree <= cutoff, each with a
non-zero coefficient. The public constructor validates and normalises its
input to that form. Every ring operation (+, -, unary -, *, **, invert,
truncate, binomial_factor) combines terms that are already clean,
keeps only keys within the cutoff and drops coefficients that cancel, so it
builds its result with the private TruncatedSeries._trusted, which stores the
dict as given without checking it again.
"""

from __future__ import annotations

from math import comb
from operator import add, itemgetter

from .errors import DimensionError, NonTerminatingProductError, NotInvertibleError

_first = itemgetter(0)


class TruncatedSeries:
    """Multivariate power series truncated at a fixed total degree.

    Terms are stored sparsely as {exponent tuple: coefficient}; zero
    coefficients and terms beyond the cutoff are never stored. Instances are
    treated as immutable values: no method mutates self.
    """

    __slots__ = ("num_vars", "cutoff", "terms")

    def __init__(self, num_vars: int, cutoff: int, terms=None):
        if num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.num_vars = num_vars
        self.cutoff = cutoff
        clean = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coef and sum(exps) <= cutoff:
                clean[exps] = clean.get(exps, 0) + coef
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _trusted(cls, num_vars: int, cutoff: int, terms: dict) -> "TruncatedSeries":
        """Wrap terms that already satisfy the clean-terms invariant, unchecked."""
        series = object.__new__(cls)
        series.num_vars = num_vars
        series.cutoff = cutoff
        series.terms = terms
        return series

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, num_vars: int, cutoff: int) -> "TruncatedSeries":
        return cls(num_vars, cutoff, {(0,) * num_vars: 1})

    @classmethod
    def zero(cls, num_vars: int, cutoff: int) -> "TruncatedSeries":
        return cls(num_vars, cutoff, {})

    @classmethod
    def monomial(cls, num_vars: int, cutoff: int, exps, coef: int = 1) -> "TruncatedSeries":
        """coef * q^exps, silently zero when the degree exceeds the cutoff."""
        return cls(num_vars, cutoff, {tuple(exps): coef})

    def one_like(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(self.num_vars, self.cutoff, {(0,) * self.num_vars: 1})

    def zero_like(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(self.num_vars, self.cutoff, {})

    # -- ring operations -------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.num_vars != other.num_vars or self.cutoff != other.cutoff:
            raise DimensionError(
                f"incompatible series: ({self.num_vars} vars, cutoff {self.cutoff}) "
                f"vs ({other.num_vars} vars, cutoff {other.cutoff})"
            )

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c += terms.get(e, 0)
            if c:
                terms[e] = c
            else:
                del terms[e]
        return TruncatedSeries._trusted(self.num_vars, self.cutoff, terms)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c = terms.get(e, 0) - c
            if c:
                terms[e] = c
            else:
                del terms[e]
        return TruncatedSeries._trusted(self.num_vars, self.cutoff, terms)

    def __neg__(self):
        return TruncatedSeries._trusted(
            self.num_vars, self.cutoff, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return TruncatedSeries._trusted(self.num_vars, self.cutoff, terms)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        cutoff = self.cutoff
        out: dict = {}
        # ascending degree, so each inner loop stops at its first overflow
        a_items = sorted([(sum(e), e, c) for e, c in self.terms.items()], key=_first)
        for eb, cb in other.terms.items():
            room = cutoff - sum(eb)
            for da, ea, ca in a_items:
                if da > room:
                    break
                key = tuple(map(add, ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return TruncatedSeries._trusted(
            self.num_vars, cutoff, {e: c for e, c in out.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = self.one_like()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.num_vars == other.num_vars
            and self.cutoff == other.cutoff
            and self.terms == other.terms
        )

    __hash__ = None  # value type, but terms dict is unhashable

    def __repr__(self):
        n = len(self.terms)
        return f"TruncatedSeries({self.num_vars} vars, cutoff {self.cutoff}, {n} terms)"

    # -- queries and derived series ---------------------------------------

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.num_vars, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def min_nonconstant_degree(self):
        """Lowest total degree among non-constant terms, or None."""
        degrees = [sum(e) for e in self.terms if any(e)]
        return min(degrees) if degrees else None

    def truncate(self, cutoff: int) -> "TruncatedSeries":
        if cutoff > self.cutoff:
            raise ValueError("cannot extend a truncated series")
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        terms = {e: c for e, c in self.terms.items() if sum(e) <= cutoff}
        return TruncatedSeries._trusted(self.num_vars, cutoff, terms)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the cutoff; constant term must be +-1."""
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NotInvertibleError(f"constant term {c0} is not a unit")
        # b_d = -c0 * sum_{e=1..d} a_e b_{d-e}, graded by total degree
        by_degree: dict = {}
        for e, c in self.terms.items():
            by_degree.setdefault(sum(e), {})[e] = c
        inv_parts: dict = {0: {(0,) * self.num_vars: c0}}
        for d in range(1, self.cutoff + 1):
            acc: dict = {}
            for e in range(1, d + 1):
                a_e = by_degree.get(e)
                if not a_e:
                    continue
                for ea, ca in a_e.items():
                    for eb, cb in inv_parts.get(d - e, {}).items():
                        key = tuple(map(add, ea, eb))
                        acc[key] = acc.get(key, 0) + ca * cb
            inv_parts[d] = {e: -c0 * c for e, c in acc.items() if c}
        terms = {e: c for part in inv_parts.values() for e, c in part.items()}
        return TruncatedSeries._trusted(self.num_vars, self.cutoff, terms)


def binomial_factor(num_vars: int, cutoff: int, exps, exponent: int, sign: int = 1) -> TruncatedSeries:
    """(1 + sign * q^exps)^exponent for any integer exponent, expanded exactly.

    The closed binomial form avoids building long geometric intermediates when
    assembling infinite products factor by factor.
    """
    exps = tuple(exps)
    deg = sum(exps)
    if deg < 1:
        raise ValueError("factor monomial must have total degree >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if len(exps) != num_vars:
        raise ValueError(f"exponent vector {exps} has wrong length")
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {exps}")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    terms = {}
    j = 0
    while j * deg <= cutoff:
        if exponent >= 0:
            if j > exponent:
                break
            c = comb(exponent, j)
        else:
            c = comb(-exponent + j - 1, j) * (-1) ** j
        terms[tuple(j * e for e in exps)] = c * sign**j
        j += 1
    # every binomial coefficient kept here is non-zero and within the cutoff
    return TruncatedSeries._trusted(num_vars, cutoff, terms)


def product_over_k(factor, cutoff: int, max_factors: int = 4096) -> TruncatedSeries:
    """Truncated infinite product prod_{k>=1} factor(k).

    factor(k) must equal 1 plus terms whose minimum degree grows with k; the
    loop stops at the first factor contributing nothing below the cutoff. The
    max_factors guard turns a non-growing factor stream into an error instead
    of a hang.
    """
    first = factor(1)
    result = TruncatedSeries.one(first.num_vars, cutoff)
    k = 1
    fk = first
    while True:
        if fk.constant_term() != 1:
            raise ValueError(f"factor({k}) must have constant term 1")
        low = fk.min_nonconstant_degree()
        if low is None or low > cutoff:
            return result
        result = result * fk
        k += 1
        if k > max_factors:
            raise NonTerminatingProductError(
                f"product still collecting factors after {max_factors} terms"
            )
        fk = factor(k)


class LaurentSymbol:
    """Polynomial in z and 1/z whose coefficients are truncated series.

    The window W bounds the stored z-exponents; for the symbols built here any
    z^m coefficient with |m| > D + 1 vanishes at truncation D because at most
    one factor contributes a z at q-degree zero, so the default window D + 1
    loses nothing.
    """

    __slots__ = ("num_vars", "cutoff", "window", "coeffs")

    def __init__(self, num_vars: int, cutoff: int, window: int, coeffs=None):
        if window < 0:
            raise ValueError("window must be >= 0")
        self.num_vars = num_vars
        self.cutoff = cutoff
        self.window = window
        clean = {}
        for zpow, series in (coeffs or {}).items():
            if abs(zpow) > window:
                continue
            if series.num_vars != num_vars or series.cutoff != cutoff:
                raise DimensionError("symbol coefficient from a different ring")
            if not series.is_zero():
                clean[zpow] = series
        self.coeffs = clean

    @classmethod
    def identity(cls, num_vars: int, cutoff: int, window: int) -> "LaurentSymbol":
        return cls(num_vars, cutoff, window, {0: TruncatedSeries.one(num_vars, cutoff)})

    def coefficient(self, n: int) -> TruncatedSeries:
        """The series G_n; zero outside the window (symbols vanish there)."""
        got = self.coeffs.get(n)
        return got if got is not None else TruncatedSeries.zero(self.num_vars, self.cutoff)

    def __mul__(self, other):
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        if self.num_vars != other.num_vars or self.cutoff != other.cutoff:
            raise DimensionError("mixed symbol rings")
        window = min(self.window, other.window)
        out: dict = {}
        for m, a in self.coeffs.items():
            for n, b in other.coeffs.items():
                p = m + n
                if abs(p) > window:
                    continue
                c = a * b
                if c.is_zero():
                    continue
                out[p] = out[p] + c if p in out else c
        return LaurentSymbol(self.num_vars, self.cutoff, window, out)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSymbol)
            and self.num_vars == other.num_vars
            and self.cutoff == other.cutoff
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        lo = min(self.coeffs, default=0)
        hi = max(self.coeffs, default=0)
        return f"LaurentSymbol(z^{lo}..z^{hi}, {self.num_vars} vars, cutoff {self.cutoff})"


def det_division_free(matrix) -> TruncatedSeries:
    """Determinant over the truncated ring by unit-pivot Gaussian elimination.

    Each column takes as pivot the first remaining entry with constant term
    +-1, a unit of the local ring, so elimination below it is exact. Once a
    column has no unit left, the Schur complement block that remains goes to
    the Berkowitz recursion, giving det = sign * prod(pivots) * det(rest).
    Matrices whose pivots are all units cost O(n^3) multiplies.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    rows = [list(row) for row in matrix]
    det = rows[0][0].one_like()
    c = 0
    for p, pivot in _unit_pivots(rows):
        det = det * pivot if p == c else -det * pivot
        c += 1
    if c < n:
        return det * _berkowitz([row[c:] for row in rows[c:]])
    return det


def _unit_pivots(rows):
    """Unit-pivot Gaussian elimination of the square matrix rows, in place.

    For each column c, the first row p >= c whose column-c entry has constant
    term +-1 is swapped into row c, column c is cleared below it (only
    columns c + 1 on are rewritten; the stale column-c entries are never read
    again), and (p, pivot) is yielded. At the first column without such a row
    the elimination stops, leaving the Schur complement in rows[c:], columns
    c on.
    """
    n = len(rows)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c].constant_term() in (1, -1)), None)
        if p is None:
            return
        rows[c], rows[p] = rows[p], rows[c]
        pivot_row = rows[c]
        pivot = pivot_row[c]
        neg_inv = -pivot.invert()
        for row in rows[c + 1 :]:
            if row[c].is_zero():
                continue
            factor = row[c] * neg_inv
            for j in range(c + 1, n):
                if not pivot_row[j].is_zero():
                    row[j] = row[j] + factor * pivot_row[j]
        yield p, pivot


def _berkowitz(matrix) -> TruncatedSeries:
    """Determinant by the Berkowitz recursion: ring operations only, O(n^4)
    multiplies, exact for any square matrix over the truncated ring."""
    n = len(matrix)
    one = matrix[0][0].one_like()
    zero = matrix[0][0].zero_like()
    # p holds the characteristic polynomial (of the leading minor) coefficients
    p = [one, -matrix[0][0]]
    for r in range(1, n):
        row = matrix[r][:r]
        col = [matrix[i][r] for i in range(r)]
        t = [one, -matrix[r][r]]
        v = col
        for j in range(1, r + 1):
            s = zero
            for i in range(r):
                s = s + row[i] * v[i]
            t.append(-s)
            if j < r:
                v = [
                    sum((matrix[i][k] * v[k] for k in range(r)), zero) for i in range(r)
                ]
        p_new = []
        for i in range(r + 2):
            acc = zero
            for k in range(max(0, i - r - 1), min(i, r) + 1):
                if i - k < len(t):
                    acc = acc + t[i - k] * p[k]
            p_new.append(acc)
        p = p_new
    det = p[n]
    return det if n % 2 == 0 else -det


def toeplitz_det(f: LaurentSymbol, N: int) -> TruncatedSeries:
    """det of the N x N matrix with entries G_{i-j} taken from the symbol f."""
    if N < 1:
        raise ValueError("N must be >= 1")
    matrix = [[f.coefficient(i - j) for j in range(N)] for i in range(N)]
    return det_division_free(matrix)
