"""Toeplitz-determinant route: symbols, graded inverse, stabilization."""

import random
from functools import lru_cache

import pytest

from crystalmelt import (
    ChamberSpec,
    LaurentSymbol,
    NotInvertibleError,
    StabilizationFailureError,
    TruncatedSeries,
    binomial_factor,
    c3_chamber,
    chamber_prefactor,
    chamber_product,
    chamber_symbol,
    conifold_theta,
    enumerate_z,
    enumerate_z_transposed,
    macmahon,
    macmahon_two_var,
    path_matrix,
    product_over_k,
    stabilized_toeplitz,
    toeplitz_det,
    walker_graph,
)
from crystalmelt import engines, enumeration, lgv, matrixmodel, series
from crystalmelt.chambers import row_bound
from crystalmelt.engines import engine_series
from crystalmelt.matrixmodel import _divide_linear, _times_linear, _to_symbol
from oracles import contiguous_steps, shifted_chamber_data


def closed_form_cn(n, cutoff):
    """The theta_n prefactor in closed form, with q = q0 q1:

        C_n = prod_{k=1}^{n} (1 - q^k)^(-k)
            * prod_{k>n} (1 + q0^k q1^(k-1))^n (1 - q^k)^(-n)
    """
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


def _linear(num_vars, cutoff, window, zpow, exps, sign):
    """The symbol 1 + sign * x^exps * z^zpow (identity if exps exceeds the cutoff)."""
    coeffs = {0: TruncatedSeries.one(num_vars, cutoff)}
    mono = TruncatedSeries.monomial(num_vars, cutoff, exps, 1 if sign >= 0 else -1)
    if not mono.is_zero():
        coeffs[zpow] = mono
    return LaurentSymbol(num_vars, cutoff, window, coeffs)


def _symbol_inverse(f):
    """Invert a symbol whose z^0 series is a unit and whose off-center
    coefficients all vanish at q-degree zero.

    Writing f = a0 (1 + S) with S supported away from degree zero, the inverse
    is a0^{-1} sum_j (-S)^j; the sum terminates because each power of S climbs
    at least one q-degree. Intended for strict symbols (coefficient of z^m has
    valuation >= |m|), where the window clip during the powers drops nothing.
    The reference that chamber_symbol's factor-by-factor division is
    compared against.
    """
    a0_inv = f.coefficient(0).invert()
    rest = {}
    for m, c in f.coeffs.items():
        if m == 0:
            continue
        if c.constant_term() != 0:
            raise NotInvertibleError(
                "symbol inverse needs off-center coefficients without constant term"
            )
        rest[m] = a0_inv * c
    s = LaurentSymbol(f.num_vars, f.cutoff, f.window, rest)
    total = {0: TruncatedSeries.one(f.num_vars, f.cutoff)}
    power = LaurentSymbol.identity(f.num_vars, f.cutoff, f.window)
    sign = 1
    for _ in range(f.cutoff):
        power = power * s
        sign = -sign
        if not power.coeffs:
            break
        for m, c in power.coeffs.items():
            signed = c if sign > 0 else -c
            total[m] = total[m] + signed if m in total else signed
    return LaurentSymbol(
        f.num_vars, f.cutoff, f.window, {m: a0_inv * c for m, c in total.items()}
    )


def test_c3_symbol_coefficient_exemplars():
    f1 = chamber_symbol(c3_chamber(), 1)
    # G_0 at degree 1: the z^0 part of (1+z)(1+qz)(1+q/z) is 1 + q
    g0 = f1.coefficient(0)
    assert g0.terms == {(0,): 1, (1,): 1}
    f0 = chamber_symbol(c3_chamber(), 0)
    assert f0.coefficient(1).terms == {(0,): 1}
    assert f0.coefficient(2).is_zero()


def test_c3_symbol_window():
    f = chamber_symbol(c3_chamber(), 4)
    assert f.window == 5
    assert all(abs(m) <= 5 for m in f.coeffs)


def general_product_symbols(d):
    """The chamber symbols of c3 and theta_n, n = 0..4, rebuilt factor by
    factor as general symbol products, the conifold denominator through
    _symbol_inverse of the whole product."""
    w = d + 1
    f = LaurentSymbol.identity(1, d, w)
    for k in range(1, d + 1):
        f = f * _linear(1, d, w, 1, (k,), 1) * _linear(1, d, w, -1, (k,), 1)
    c3 = f * _linear(1, d, w, 1, (0,), 1)
    f = LaurentSymbol.identity(2, d, w)
    for k in range(1, d // 2 + 1):
        f = f * _linear(2, d, w, 1, (k, k), 1) * _linear(2, d, w, -1, (k, k), 1)
    den = LaurentSymbol.identity(2, d, w)
    for k in range((d + 1) // 2 + 1):
        den = den * _linear(2, d, w, 1, (k, k + 1), -1) * _linear(2, d, w, -1, (k + 1, k), -1)
    f = f * _symbol_inverse(den)
    conifold = []
    for n in range(5):
        if n:
            f = f * _linear(2, d, w, -1, (n, n - 1), -1)
        conifold.append(f * _linear(2, d, w, 1, (0, 0), 1))
    return c3, conifold


def test_shift_and_add_symbols_match_general_products():
    for d in range(14):
        c3, conifold = general_product_symbols(d)
        assert chamber_symbol(c3_chamber(), d) == c3, d
        for n, expected in enumerate(conifold):
            assert chamber_symbol(conifold_theta(n), d) == expected, (n, d)


def test_symbol_inverse_is_two_sided_on_strict_symbols():
    rng = random.Random(2718)
    ident = LaurentSymbol.identity(2, 6, 7)
    for _ in range(25):
        f = LaurentSymbol.identity(2, 6, 7)
        for _ in range(rng.randint(1, 4)):
            zpow = rng.choice([-1, 1])
            exps = (rng.randint(0, 2), rng.randint(1, 2))
            f = f * _linear(2, 6, 7, zpow, exps, rng.choice([1, -1]))
        inv = _symbol_inverse(f)
        assert f * inv == ident
        assert inv * f == ident


def test_symbol_inverse_rejects_constant_off_center_terms():
    one = TruncatedSeries.one(1, 3)
    f = LaurentSymbol(1, 3, 4, {0: one, 1: one})
    with pytest.raises(NotInvertibleError):
        _symbol_inverse(f)


def test_divide_linear_undoes_the_linear_factor():
    rng = random.Random(1102)
    for _ in range(40):
        d = rng.randint(0, 8)
        w = d + 1
        f = {0: {(0, 0): 1}}
        for _ in range(rng.randint(0, 4)):
            exps = (rng.randint(0, 2), rng.randint(1, 2))
            f = _times_linear(f, d, w, rng.choice([-1, 1]), exps, rng.choice([-1, 1]))
        zpow = rng.choice([-1, 1])
        exps = (rng.randint(0, 2), rng.randint(1, 3))
        g = _divide_linear(f, d, w, zpow, exps)
        back = _times_linear(g, d, w, zpow, exps, -1)
        assert _to_symbol(2, d, w, back) == _to_symbol(2, d, w, f)
        inverse = _symbol_inverse(_linear(2, d, w, zpow, exps, -1))
        assert _to_symbol(2, d, w, g) == _to_symbol(2, d, w, f) * inverse


def test_conifold_symbol_chamber_factor_recursion():
    # moving from theta_0 to theta_1 multiplies the symbol by (1 - q0/z)
    d = 5
    step = _linear(2, d, d + 1, -1, (1, 0), -1)
    assert chamber_symbol(conifold_theta(1), d) == chamber_symbol(conifold_theta(0), d) * step
    # and theta_2 adds (1 - q0^2 q1 / z) on top
    step2 = _linear(2, d, d + 1, -1, (2, 1), -1)
    assert chamber_symbol(conifold_theta(2), d) == chamber_symbol(conifold_theta(1), d) * step2


def test_prefactor_small_values():
    assert chamber_prefactor(conifold_theta(0), 6) == TruncatedSeries.one(2, 6)
    # C_1 through degree 3 by hand: (1-q0q1)^{-1} (1+q0^2q1) ...
    c1 = chamber_prefactor(conifold_theta(1), 3)
    assert c1.coefficient((0, 0)) == 1
    assert c1.coefficient((1, 1)) == 1
    assert c1.coefficient((2, 1)) == 1
    assert c1.coefficient((1, 0)) == 0


def test_prefactor_collapse_at_large_n():
    d = 6
    for n in (d, d + 1, d + 3):
        assert chamber_prefactor(conifold_theta(n), d) == macmahon_two_var(d)


def test_step_pair_prefactor_equals_the_closed_form_cn():
    for d in range(13):
        for n in range(d + 7):
            assert chamber_prefactor(conifold_theta(n), d) == closed_form_cn(n, d), (n, d)


def kept_bound(spec, degree):
    """R_kept: the row bound over the kept steps of the chamber's symbol."""
    return row_bound(matrixmodel._split_steps(spec, degree)[0], degree)


def test_stabilized_toeplitz_identity_symbol():
    ident = LaurentSymbol.identity(1, 4, 5)
    res = stabilized_toeplitz(ident, 4, 3)
    assert res.value == TruncatedSeries.one(1, 4)
    assert res.stabilized_at == 3
    assert sorted(res.history) == [3, 4]


def test_stabilized_toeplitz_c3():
    d = 5
    assert kept_bound(c3_chamber(), d) == d
    res = stabilized_toeplitz(chamber_symbol(c3_chamber(), d), d, d)
    assert res.value == macmahon(d)
    assert res.stabilized_at == d
    # the size is proven: a larger matrix gives the same truncation
    wider = toeplitz_det(chamber_symbol(c3_chamber(), d), d + 2).truncate(d)
    assert wider == res.value


def test_stabilized_toeplitz_history_records_the_plateau():
    # the history holds the given size and the next one, which certifies it
    d = 4
    res = stabilized_toeplitz(chamber_symbol(c3_chamber(), d), d, d)
    assert sorted(res.history) == [d, d + 1]
    assert res.history[d] == res.history[d + 1] == res.value


def test_unit_pivots_match_per_size_determinants():
    # one elimination of T_{d+3} without a swap: its first k pivots multiply
    # to det T_k for every k (the q = 0 lemma), on c3, theta_0..theta_3 and a
    # Laurent chamber outside theta_n
    for d in (6, 8):
        symbols = {"c3": chamber_symbol(c3_chamber(), d)}
        symbols.update({f"theta{n}": chamber_symbol(conifold_theta(n), d) for n in range(4)})
        symbols["L3"] = chamber_symbol(ChamberSpec(3, (1, 1, 1), (3, 1, 5)), d)
        for name, f in symbols.items():
            n = d + 3
            rows = [[f.coefficient(i - j).truncate(d) for j in range(n)] for i in range(n)]
            det = TruncatedSeries.one(f.num_vars, d)
            taken = 0
            for p, pivot in series._unit_pivots(rows):
                assert p == taken, (name, d, taken)
                taken += 1
                det = det * pivot
                assert det == toeplitz_det(f, taken).truncate(d), (name, d, taken)
            assert taken == n, (name, d)


def test_zero_leading_minor_is_rejected_with_its_size():
    one = TruncatedSeries.one(1, 3)
    # f = z: every section has a zero diagonal, singular from size 1 on
    with pytest.raises(StabilizationFailureError, match="size 1 "):
        stabilized_toeplitz(LaurentSymbol(1, 3, 4, {1: one}), 3, 3)
    # f = 1/z + 1 + z: T_1 = [1], but T_2 = [[1, 1], [1, 1]] is singular
    with pytest.raises(StabilizationFailureError, match="size 2 "):
        stabilized_toeplitz(LaurentSymbol(1, 3, 4, {-1: one, 0: one, 1: one}), 3, 3)


def test_stabilized_toeplitz_conifold_with_prefactor():
    d = 4
    for n in (0, 1):
        spec = conifold_theta(n)
        res = stabilized_toeplitz(chamber_symbol(spec, d), d, kept_bound(spec, d))
        got = chamber_prefactor(spec, d) * res.value
        assert got == enumerate_z(spec, d), n


def test_stabilization_failure_is_detected():
    # a constant-2 symbol has det 2^N: column 0 holds no unit at all
    two = TruncatedSeries(1, 2, {(0,): 2})
    f = LaurentSymbol(1, 2, 3, {0: two})
    with pytest.raises(StabilizationFailureError, match="size 1 .*not a unit"):
        stabilized_toeplitz(f, 2, 2)


def test_one_size_short_fails_the_certificate():
    # on c3 R_kept = D is attained, so the pivot after size D - 1 is not 1
    for d in range(1, 9):
        with pytest.raises(StabilizationFailureError, match=f"size {d - 1} to {d}"):
            stabilized_toeplitz(chamber_symbol(c3_chamber(), d), d, d - 1)


def test_stabilized_toeplitz_validation():
    with pytest.raises(ValueError):
        stabilized_toeplitz(chamber_symbol(c3_chamber(), 3), -1, 3)
    with pytest.raises(ValueError):
        stabilized_toeplitz(chamber_symbol(c3_chamber(), 3), 4, 3)
    with pytest.raises(ValueError):
        stabilized_toeplitz(chamber_symbol(c3_chamber(), 3), 3, -1)


def scan_sample():
    """(chamber, degree): all 28 chambers of the L = 2, |shift| <= 3 scan at
    degree 6 and a seeded 80 from each of the scans L = 3, |shift| <= 3 at
    degree 5; L = 3, <= 4 at 4; L = 4, <= 2 at 4; L = 5, <= 1 at 4."""
    rng = random.Random(1414)
    scans = ((2, 3, 6, 28), (3, 3, 5, 80), (3, 4, 4, 80), (4, 2, 4, 80), (5, 1, 4, 80))
    for L, shift, degree, count in scans:
        scan = [ChamberSpec(*data) for data in shifted_chamber_data(L, shift)]
        for spec in rng.sample(scan, count):
            yield spec, degree


def test_every_route_equals_product_on_every_chamber():
    # multi-peak, Laurent and "minus"-lax chambers alike, each determinant
    # taken at its proven size
    for spec, degree in scan_sample():
        z, extras = engine_series("toeplitz", spec, degree)
        assert z == chamber_product(spec, degree), (spec, degree)
        assert z == engine_series("lgv", spec, degree)[0], (spec, degree)
        assert z == enumerate_z(spec, degree), (spec, degree)
        assert z == enumerate_z_transposed(spec, degree), (spec, degree)
        assert extras["stabilized_at"] == kept_bound(spec, degree), (spec, degree)


def test_every_route_equals_the_contiguous_table(monkeypatch):
    # the steps priced above the degree change no configuration, pair factor
    # or path sum: over the contiguous table, a period wider on each side
    # (oracles.contiguous_steps), every route, Toeplitz size and walker
    # path-matrix entry is the same, on every third chamber of the scan
    def routes(spec, degree):
        out = [engine_series(name, spec, degree) for name in ("enumerate", "toeplitz", "lgv")]
        return out + [path_matrix(walker_graph(spec, engines._walkers(spec, degree), degree))]

    cases = list(scan_sample())[::3]
    expected = [routes(spec, degree) for spec, degree in cases]

    @lru_cache(maxsize=None)
    def contiguous(spec, degree):
        return contiguous_steps(spec, degree, spec.L)

    for module in (engines, enumeration, lgv, matrixmodel):
        monkeypatch.setattr(module, "potential_steps", contiguous)
    for (spec, degree), want in zip(cases, expected):
        assert routes(spec, degree) == want, (spec, degree)


def test_swapped_pair_rule_is_caught(monkeypatch):
    # the prefactor with 1 / (1 - x^v) for differing relations and (1 + x^v)
    # for matching ones must disagree with the product somewhere
    real = matrixmodel.binomial_factor

    def swapped(num_vars, cutoff, exps, exponent, sign):
        return real(num_vars, cutoff, exps, -exponent, sign=-sign)

    monkeypatch.setattr(matrixmodel, "binomial_factor", swapped)
    scan = [ChamberSpec(*data) for data in shifted_chamber_data(3, 2)]
    assert any(engine_series("toeplitz", spec, 5)[0] != chamber_product(spec, 5) for spec in scan)


def test_one_row_short_toeplitz_size_is_caught(monkeypatch):
    # one row fewer than R_kept fails the certificate somewhere, and it never
    # gives a wrong series: the pivot it checks is det T_R / det T_{R-1}
    real = engines.row_bound

    def short(table, degree):
        return max(real(table, degree) - 1, 0)

    monkeypatch.setattr(engines, "row_bound", short)
    failed = wrong = 0
    for spec, degree in scan_sample():
        try:
            wrong += engine_series("toeplitz", spec, degree)[0] != chamber_product(spec, degree)
        except StabilizationFailureError:
            failed += 1
    assert failed and not wrong, (failed, wrong)


def test_toeplitz_route_on_a_far_chamber():
    # theta_2000's steps priced within the degree lie thousands of slices
    # apart; the split takes the 2D + 1 of them and nothing in between
    spec = conifold_theta(2000)
    kept, dropped = matrixmodel._split_steps(spec, 4)
    assert len(kept) + len(dropped) == 2 * 4 + 1
    assert engine_series("toeplitz", spec, 4)[0] == chamber_product(spec, 4)
