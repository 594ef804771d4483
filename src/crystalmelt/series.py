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
(matrixmodel.stabilized_toeplitz). It runs on the packed terms below rather
than on series: each matrix entry is one working {key: coefficient} dict,
and each Schur update adds factor * pivot_row[j] into it in place, keeping
and keying every pair by the packing lemma, so no product or sum series is
built per entry.

Packed keys. A series stores each monomial q^e of its ring (L variables,
cutoff D) as one integer, its key

    key(e) = deg(e) << shift | sum_i e_i << (i * width),

with width = max(1, D.bit_length()) bits per exponent field and
shift = width * L (the packed exponent vectors of Monagan and Pearce). The
codec is derived from the ring (_codec), so every series of one ring shares
it. A monomial of the ring has every e_i <= deg(e) <= D < 2^width, so each
field holds its exponent exactly and _Codec.unpack inverts the packing.

Packing lemma. (i) Every key satisfies deg(e) << shift <= key(e) <
(deg(e) + 1) << shift, so keys sort by degree first, and deg(e) <= r exactly
when key(e) < (r + 1) << shift. (ii) If deg a + deg b <= D, then
key(a) + key(b) = key(a + b). (iii) For r <= D, key(a) + key(b) <
(r + 1) << shift exactly when deg a + deg b <= r. Proof: (i) the low part
sum_i e_i << (i * width) is below 2^shift. (ii) Each field sum a_i + b_i is
at most deg a + deg b <= D < 2^width, so no field carries into the next or
into the degree field, and the degree fields add to deg(a + b).
(iii) When deg a + deg b <= r, (ii) and (i) give the sum
key(a + b) < (r + 1) << shift; otherwise (i) bounds the sum below by
(deg a + deg b) << shift >= (r + 1) << shift. So a product keeps the pair
(a, b) by one compare, key(a) < ((D + 1) << shift) - key(b), and its key is
the integer sum; a degree test on one key is one compare by (i).

Clean-terms invariant: a series stores only keys of monomials of its ring
(exponent tuples of length num_vars with non-negative entries and total
degree <= cutoff, packed by the ring's codec), each with a non-zero
coefficient. The public constructor validates and normalises its input to
that form. Every ring operation (+, -, unary -, *, **, invert, truncate,
binomial_factor) combines keys that are already clean, keeps only sums
within the cutoff, where the lemma makes them exact, and drops coefficients
that cancel, so it builds its result with the private
TruncatedSeries._trusted, which stores the dict as given without checking it
again. The public terms attribute reads the same terms as {exponent tuple:
coefficient}, decoded as they are read.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import comb

from .errors import DimensionError, NonTerminatingProductError, NotInvertibleError


class _Codec:
    """The packing of the monomials of one ring (num_vars, cutoff) into keys
    (module docstring)."""

    __slots__ = ("num_vars", "cutoff", "width", "shift", "cap")

    def __init__(self, num_vars: int, cutoff: int, width: int):
        self.num_vars = num_vars
        self.cutoff = cutoff
        self.width = width
        self.shift = width * num_vars
        self.cap = (cutoff + 1) << self.shift  # the keys within the cutoff lie below

    def pack(self, exps) -> int:
        """The key of an exponent tuple of the ring (degree <= cutoff)."""
        key = sum(exps)
        for e in reversed(exps):
            key = key << self.width | e
        return key

    def unpack(self, key: int) -> tuple:
        width = self.width
        mask = (1 << width) - 1
        return tuple(key >> (i * width) & mask for i in range(self.num_vars))

    def key(self, exps):
        """The key of exps, or None when exps is no monomial of the ring: a
        wrong length, a negative entry or a degree past the cutoff."""
        exps = tuple(exps)
        if len(exps) != self.num_vars or min(exps) < 0 or sum(exps) > self.cutoff:
            return None
        return self.pack(exps)


@lru_cache(maxsize=None)
def _codec(num_vars: int, cutoff: int) -> _Codec:
    return _Codec(num_vars, cutoff, max(1, cutoff.bit_length()))


class _Terms(Mapping):
    """A series' terms as {exponent tuple: coefficient}, decoded from its
    packed keys as they are read; len() counts the keys without decoding."""

    __slots__ = ("_codec", "_packed")

    def __init__(self, codec: _Codec, packed: dict):
        self._codec = codec
        self._packed = packed

    def __len__(self):
        return len(self._packed)

    def __iter__(self):
        return map(self._codec.unpack, self._packed)

    def __getitem__(self, exps):
        key = self._codec.key(exps)
        if key is None or key not in self._packed:
            raise KeyError(exps)
        return self._packed[key]

    def items(self):
        """The items of a decoded copy, each key decoded once."""
        packed = self._packed
        return dict(zip(map(self._codec.unpack, packed), packed.values())).items()

    def __repr__(self):
        return repr(dict(self.items()))


class TruncatedSeries:
    """Multivariate power series truncated at a fixed total degree.

    Terms are stored sparsely as {packed key: coefficient} (module
    docstring); zero coefficients and terms beyond the cutoff are never
    stored. terms is the {exponent tuple: coefficient} view of them.
    Instances are treated as immutable values: no method mutates self.
    """

    __slots__ = ("num_vars", "cutoff", "_codec", "_packed")

    def __init__(self, num_vars: int, cutoff: int, terms=None):
        if num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.num_vars = num_vars
        self.cutoff = cutoff
        self._codec = codec = _codec(num_vars, cutoff)
        clean = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coef and sum(exps) <= cutoff:
                key = codec.pack(exps)
                clean[key] = clean.get(key, 0) + coef
        self._packed = {k: c for k, c in clean.items() if c}

    @classmethod
    def _trusted(cls, num_vars: int, cutoff: int, packed: dict) -> "TruncatedSeries":
        """Wrap packed terms that already satisfy the clean-terms invariant,
        unchecked."""
        series = object.__new__(cls)
        series.num_vars = num_vars
        series.cutoff = cutoff
        series._codec = _codec(num_vars, cutoff)
        series._packed = packed
        return series

    @property
    def terms(self) -> Mapping:
        return _Terms(self._codec, self._packed)

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
        return TruncatedSeries._trusted(self.num_vars, self.cutoff, {0: 1})

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
        terms = dict(self._packed)
        for k, c in other._packed.items():
            c += terms.get(k, 0)
            if c:
                terms[k] = c
            else:
                del terms[k]
        return TruncatedSeries._trusted(self.num_vars, self.cutoff, terms)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self._packed)
        for k, c in other._packed.items():
            c = terms.get(k, 0) - c
            if c:
                terms[k] = c
            else:
                del terms[k]
        return TruncatedSeries._trusted(self.num_vars, self.cutoff, terms)

    def __neg__(self):
        return TruncatedSeries._trusted(
            self.num_vars, self.cutoff, {k: -c for k, c in self._packed.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {k: c * other for k, c in self._packed.items()} if other else {}
            return TruncatedSeries._trusted(self.num_vars, self.cutoff, terms)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        cap = self._codec.cap
        out: dict = {}
        # ascending keys, so ascending degree: each inner loop stops at its
        # first pair past the cutoff (packing lemma (iii))
        a_items = sorted(self._packed.items())
        for kb, cb in other._packed.items():
            below = cap - kb
            for ka, ca in a_items:
                if ka >= below:
                    break
                key = ka + kb
                out[key] = out.get(key, 0) + ca * cb
        return TruncatedSeries._trusted(
            self.num_vars, self.cutoff, {k: c for k, c in out.items() if c}
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
            and self._packed == other._packed
        )

    __hash__ = None  # value type, but terms dict is unhashable

    def __repr__(self):
        n = len(self._packed)
        return f"TruncatedSeries({self.num_vars} vars, cutoff {self.cutoff}, {n} terms)"

    # -- queries and derived series ---------------------------------------

    def coefficient(self, exps) -> int:
        """The coefficient of q^exps; 0 for any tuple that is no monomial of
        the ring."""
        key = self._codec.key(exps)
        return 0 if key is None else self._packed.get(key, 0)

    def constant_term(self) -> int:
        return self._packed.get(0, 0)

    def is_zero(self) -> bool:
        return not self._packed

    def min_nonconstant_degree(self):
        """Lowest total degree among non-constant terms, or None."""
        low = min((k for k in self._packed if k), default=None)
        return None if low is None else low >> self._codec.shift

    def truncate(self, cutoff: int) -> "TruncatedSeries":
        if cutoff > self.cutoff:
            raise ValueError("cannot extend a truncated series")
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        below = (cutoff + 1) << self._codec.shift
        terms = {k: c for k, c in self._packed.items() if k < below}
        codec = _codec(self.num_vars, cutoff)
        if codec.width != self._codec.width:
            unpack = self._codec.unpack
            terms = {codec.pack(unpack(k)): c for k, c in terms.items()}
        return TruncatedSeries._trusted(self.num_vars, cutoff, terms)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the cutoff; constant term must be +-1."""
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NotInvertibleError(f"constant term {c0} is not a unit")
        # b_d = -c0 * sum_{e=1..d} a_e b_{d-e}, graded by total degree; every
        # key pair summed has degree d <= cutoff, so its sum is exact
        shift = self._codec.shift
        by_degree: dict = {}
        for k, c in self._packed.items():
            by_degree.setdefault(k >> shift, []).append((k, c))
        inv_parts = [{0: c0}]
        for d in range(1, self.cutoff + 1):
            acc: dict = {}
            for e in range(1, d + 1):
                for ka, ca in by_degree.get(e, ()):
                    for kb, cb in inv_parts[d - e].items():
                        key = ka + kb
                        acc[key] = acc.get(key, 0) + ca * cb
            inv_parts.append({k: -c0 * c for k, c in acc.items() if c})
        terms = {k: c for part in inv_parts for k, c in part.items()}
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
    # key(j * exps) = j * key(exps) while j * deg <= cutoff (packing lemma (ii))
    step = _codec(num_vars, cutoff).pack(exps) if deg <= cutoff else 0
    terms = {}
    j = 0
    while j * deg <= cutoff:
        if exponent >= 0:
            if j > exponent:
                break
            c = comb(exponent, j)
        else:
            c = comb(-exponent + j - 1, j) * (-1) ** j
        terms[j * step] = c * sign**j
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
    The elimination (_unit_pivots) accumulates each Schur update in place on
    packed terms; matrices whose pivots are all units cost O(n^3) products
    of entries.
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
    term +-1 is swapped into row c, column c is cleared below it (at the
    last column no row is left, so the pivot is not inverted), and
    (p, pivot) is yielded. At the first column without such a row the
    elimination stops and writes the Schur complement, as series, into
    rows[c:], columns c on; no other entry of rows is rewritten.

    The elimination runs on packed terms (module docstring). Every entry gets
    a private working dict, so entries may share one series object and no
    input series is mutated. Per column, the pivot row's entries are read
    once, in ascending key order; per row below it, the factor
    row[c] * (-pivot^-1) is formed once, and each entry j of that row takes
    factor * pivot_row[j] in place, by _accumulate. Coefficients that cancel
    are dropped only where an entry is read as a pivot, a factor or a pivot
    row entry, or handed back. Entries from different rings raise
    DimensionError, since their keys do not add.
    """
    n = len(rows)
    if n == 0:
        return
    ring = rows[0][0]
    num_vars, cutoff, cap = ring.num_vars, ring.cutoff, ring._codec.cap
    if any(e.num_vars != num_vars or e.cutoff != cutoff for row in rows for e in row):
        raise DimensionError("matrix entries from different rings")

    def series(packed):
        return TruncatedSeries._trusted(num_vars, cutoff, {k: v for k, v in packed.items() if v})

    work = [[dict(entry._packed) for entry in row] for row in rows]
    for c in range(n):
        p = next((r for r in range(c, n) if work[r][c].get(0) in (1, -1)), None)
        if p is None:
            for r in range(c, n):
                rows[r][c:] = map(series, work[r][c:])
            return
        rows[c], rows[p] = rows[p], rows[c]
        work[c], work[p] = work[p], work[c]
        pivot_row = work[c]
        pivot = series(pivot_row[c])
        if c + 1 < n:
            neg_inv = sorted((k, -v) for k, v in pivot.invert()._packed.items())
            entries = [_sorted_terms(d) for d in pivot_row[c + 1 :]]
            targets = [(j, terms) for j, terms in enumerate(entries, c + 1) if terms]
            for row in work[c + 1 :]:
                entry = _sorted_terms(row[c])
                if not entry:
                    continue
                factor = {}
                _accumulate(factor, entry, neg_inv, cap)
                factor = _sorted_terms(factor)
                for j, terms in targets:
                    _accumulate(row[j], factor, terms, cap)
        yield p, pivot


def _sorted_terms(packed: dict) -> list:
    """The non-zero (key, coefficient) pairs of packed, in ascending key order."""
    return sorted((k, v) for k, v in packed.items() if v)


def _accumulate(acc: dict, a: list, b: list, cap: int) -> None:
    """Add the truncated product of the terms a and b, both in ascending key
    order and b non-empty, into the packed dict acc in place. By the packing
    lemma (iii) the pair (ka, kb) is kept exactly when ka + kb < cap, and by
    (ii) ka + kb is then its product's key. Ascending keys let each inner
    loop stop at its first pair past the cutoff, and the outer loop at the
    first ka that keeps no pair at all."""
    first = b[0][0]
    for ka, ca in a:
        below = cap - ka
        if first >= below:
            break
        for kb, cb in b:
            if kb >= below:
                break
            key = ka + kb
            acc[key] = acc.get(key, 0) + ca * cb


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
