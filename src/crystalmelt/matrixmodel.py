"""Partition functions as stabilized Toeplitz determinants.

The symbol f(z) collects single-walker transition weights; det G_{i-j} over
an N x N block reproduces the unitary matrix integral, and for N large the
determinant stops depending on N at any fixed series truncation. For a
chamber symbol the size where it stops is proven, not searched for: the
N x N determinant sums the configurations of the kept steps (split lemma
below) with at most N rows, and chambers.row_bound over those steps, R_kept,
bounds the rows of every configuration of degree <= D. So every N >= R_kept
gives the same truncation, and the route takes the determinant at size
R_kept. stabilized_toeplitz certifies the size it is given with one more
pivot: sizes N and N + 1 agree exactly when u_{N+1} is 1 at the cutoff.

Certificate: eliminating T_{N+1} without row swaps yields its pivots
u_1..u_{N+1}, the first N of which multiply to det T_N, so
det T_{N+1} = det T_N u_{N+1} equals det T_N, a unit (below), exactly when
u_{N+1} = 1. Lemma: at q = 0 every symbol built here is 1 + z (all other
factors reduce to 1), so T_N is unit lower-bidiagonal mod q, every leading
minor is 1 mod q and every pivot u_N = minor_N / minor_{N-1} is a unit of
the local ring: no swap is ever needed, and a symbol that needs one is
rejected with StabilizationFailureError naming the size.

Window bookkeeping: every factor except the single (1 + z) carries at least
one unit of q-degree per unit of |z|-power, so z-exponents beyond D + 1 have
identically zero coefficients at truncation D. Multiplying the lone lax
factor last keeps the intermediate products strict and makes the window clip
lossless.

Chamber symbols. A chamber's partition function is the vacuum expectation
of one vertex operator per step of its potential step table
(chambers.potential_steps), in time order: step t carries x^e_t, ascending
steps raise and descending steps lower, and the relation picks the bosonic
("plus") or fermionic ("minus") operator (Okounkov-Reshetikhin). Moving a
descending operator d right past an ascending one a < d gives the pair
factor 1 / (1 - x^(e_a + e_d)) when the two relations match and
(1 + x^(e_a + e_d)) when they differ, so Z is the product of the pair
factors over all pairs a < d. The Toeplitz determinant of the symbol
prod (1 + x^e_a z) or 1 / (1 - x^e_a z) over ascending steps times the same
in z^{-1} over descending ones is, in the limit N -> infinity, the product of
the pair factors over every (ascending, descending) pair, in whatever time
order (Gessel; Szegő's strong limit as made exact by Borodin-Okounkov).

Split lemma. Cut the table at its last ascending step; the descending steps
before it are dropped, every other step is kept. Every kept descending step
follows every ascending step, so the determinant of the kept symbol
(chamber_symbol) is the product of the pair factors over the pairs a < d
with d kept, and Z is that determinant times the pair factors over the
pairs a < d with d dropped (chamber_prefactor). A pair factor has degree
deg(e_a + e_d) >= deg e_a, deg e_d, and the steps outside the table are
priced above D, so the table holds every pair factor below the cutoff. Only
a* has e = 0; it is the lax factor (1 + z). When a* is "minus" every
relation is flipped first: that transposes every partition, which leaves Z
unchanged and the pair factors too.

Division lemma: a denominator factor 1 - u z^{+-1} with deg u >= 1 has the
strict inverse sum_j u^j z^{+-j}, so a strict symbol divided by it stays
strict: its z^m coefficient has valuation >= |m|, hence vanishes for
|m| > D. The window clip at D + 1 therefore drops nothing at any stage, and
dividing by the denominator one factor at a time (_divide_linear) gives
exactly the truncated quotient by the whole denominator; no general symbol
inverse is needed.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from operator import add
from typing import NamedTuple

from .chambers import potential_steps
from .errors import StabilizationFailureError
from .series import LaurentSymbol, TruncatedSeries, _unit_pivots, binomial_factor


class MatrixModelResult(NamedTuple):
    """Outcome of a stabilized determinant run.

    value is the determinant shared by sizes stabilized_at and
    stabilized_at + 1; history maps those two sizes to their determinants.
    """

    value: TruncatedSeries
    stabilized_at: int
    history: dict


def _times_linear(coeffs: dict, cutoff: int, window: int, zpow: int, exps, sign: int) -> dict:
    """coeffs * (1 + sign * x^exps * z^zpow) as a shift-and-add, clipped to the
    window like the symbol product; coeffs maps each z-power to a plain
    {exponents: coefficient} dict and is not modified."""
    out = {m: dict(terms) for m, terms in coeffs.items()}
    room = cutoff - sum(exps)
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
    strict).
    """
    room = cutoff - sum(exps)
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


def _split_steps(spec, degree):
    """The potential step table cut at its last ascending step, as (kept,
    dropped): dropped holds the descending steps before that step, kept every
    other step. Both are step tables, with every relation flipped when the
    degree-0 step a* is "minus" (module docstring)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    steps = potential_steps(spec, degree)
    if any(sum(e) == 0 and rule.relation == "minus" for _, rule, e in steps):
        steps = [(t, rule.flipped(), e) for t, rule, e in steps]
    last_up = max(t for t, rule, _ in steps if rule.direction == "ascending")
    kept = [s for s in steps if s[1].direction == "ascending" or s[0] > last_up]
    dropped = [s for s in steps if s[1].direction == "descending" and s[0] < last_up]
    return kept, dropped


def chamber_symbol(spec, degree: int) -> LaurentSymbol:
    """The walker symbol over the kept steps of the chamber's potential step
    table: (1 + x^e_t z^{+-1}) for a "plus" step and 1 / (1 - x^e_t z^{+-1})
    for a "minus" one, with z^{+1} on ascending steps and z^{-1} on
    descending ones, and the lax (1 + z) of a* last (module docstring)."""
    kept, _ = _split_steps(spec, degree)
    window = degree + 1
    f = {0: {(0,) * spec.L: 1}}
    for _, rule, e in kept:
        if sum(e) == 0:
            continue
        zpow = 1 if rule.direction == "ascending" else -1
        if rule.relation == "plus":
            f = _times_linear(f, degree, window, zpow, e, 1)
        else:
            f = _divide_linear(f, degree, window, zpow, e)
    f = _times_linear(f, degree, window, 1, (0,) * spec.L, 1)
    return _to_symbol(spec.L, degree, window, f)


def chamber_prefactor(spec, degree: int) -> TruncatedSeries:
    """Z over the determinant of chamber_symbol: the product over the pairs
    of a dropped descending step d and an ascending step a < d with
    deg(e_a + e_d) <= degree of 1 / (1 - x^(e_a + e_d)) when their relations
    match and (1 + x^(e_a + e_d)) when they differ (module docstring)."""
    kept, dropped = _split_steps(spec, degree)
    powers = Counter()
    for d, d_rule, d_e in dropped:
        room = degree - sum(d_e)
        for a, a_rule, a_e in kept:
            if a > d:
                break
            if a_rule.direction == "ascending" and sum(a_e) <= room:
                powers[tuple(map(add, a_e, d_e)), a_rule.relation == d_rule.relation] += 1
    out = TruncatedSeries.one(spec.L, degree)
    for (v, match), k in powers.items():
        if match:
            out = out * binomial_factor(spec.L, degree, v, -k, sign=-1)
        else:
            out = out * binomial_factor(spec.L, degree, v, k, sign=1)
    return out


def stabilized_toeplitz(f: LaurentSymbol, degree: int, size: int) -> MatrixModelResult:
    """The determinant of the size x size section of f modulo total degree
    `degree`, certified by the next size: one unit-pivot elimination of
    T_{size+1} (series._unit_pivots) yields the pivots u_1..u_{size+1}, and
    StabilizationFailureError is raised unless every column takes its own row
    (the q = 0 lemma) and u_{size+1} is 1 at the cutoff, that is, unless
    det T_{size+1} = det T_size u_{size+1} equals det T_size (see the module
    docstring)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if size < 0:
        raise ValueError("size must be >= 0")
    if f.cutoff < degree:
        raise ValueError("symbol truncated below the requested degree")
    zero = TruncatedSeries.zero(f.num_vars, degree)
    g = {m: c.truncate(degree) for m, c in f.coeffs.items()}
    rows = [[g.get(i - j, zero) for j in range(size + 1)] for i in range(size + 1)]
    pivots = []
    for p, pivot in _unit_pivots(rows):
        if p != len(pivots):
            break
        pivots.append(pivot)
    if len(pivots) <= size:
        raise StabilizationFailureError(
            f"Toeplitz section of size {len(pivots) + 1} has a pivot that is not a unit"
        )
    one = TruncatedSeries.one(f.num_vars, degree)
    det = prod(pivots[:size], start=one)
    if pivots[size] != one:
        raise StabilizationFailureError(
            f"Toeplitz determinant changes from size {size} to {size + 1}: "
            f"the pivot u_{size + 1} is not 1 to degree {degree}"
        )
    return MatrixModelResult(det, size, {size: det, size + 1: det})
