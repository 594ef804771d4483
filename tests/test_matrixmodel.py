"""Toeplitz-determinant route: symbols, graded inverse, stabilization."""

import random

import pytest

from crystalmelt import (
    LaurentSymbol,
    NotInvertibleError,
    StabilizationFailureError,
    TruncatedSeries,
    c3_symbol,
    conifold_symbol,
    conifold_theta,
    enumerate_z,
    macmahon,
    macmahon_two_var,
    prefactor_cn,
    stabilized_toeplitz,
    toeplitz_det,
)
from crystalmelt.matrixmodel import _linear, _symbol_inverse


def test_c3_symbol_coefficient_exemplars():
    f1 = c3_symbol(1)
    # G_0 at degree 1: the z^0 part of (1+z)(1+qz)(1+q/z) is 1 + q
    g0 = f1.coefficient(0)
    assert g0.terms == {(0,): 1, (1,): 1}
    f0 = c3_symbol(0)
    assert f0.coefficient(1).terms == {(0,): 1}
    assert f0.coefficient(2).is_zero()


def test_c3_symbol_window():
    f = c3_symbol(4)
    assert f.window == 5
    assert all(abs(m) <= 5 for m in f.coeffs)


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


def test_conifold_symbol_chamber_factor_recursion():
    # moving from theta_0 to theta_1 multiplies the symbol by (1 - q0/z)
    d = 5
    step = _linear(2, d, d + 1, -1, (1, 0), -1)
    assert conifold_symbol(1, d) == conifold_symbol(0, d) * step
    # and theta_2 adds (1 - q0^2 q1 / z) on top
    step2 = _linear(2, d, d + 1, -1, (2, 1), -1)
    assert conifold_symbol(2, d) == conifold_symbol(1, d) * step2


def test_prefactor_small_values():
    assert prefactor_cn(0, 6) == TruncatedSeries.one(2, 6)
    # C_1 through degree 3 by hand: (1-q0q1)^{-1} (1+q0^2q1) ...
    c1 = prefactor_cn(1, 3)
    assert c1.coefficient((0, 0)) == 1
    assert c1.coefficient((1, 1)) == 1
    assert c1.coefficient((2, 1)) == 1
    assert c1.coefficient((1, 0)) == 0


def test_prefactor_collapse_at_large_n():
    d = 6
    for n in (d, d + 1, d + 3):
        assert prefactor_cn(n, d) == macmahon_two_var(d)


def test_stabilized_toeplitz_identity_symbol():
    ident = LaurentSymbol.identity(1, 4, 5)
    res = stabilized_toeplitz(ident, 4)
    assert res.value == TruncatedSeries.one(1, 4)
    assert res.stabilized_at == 5  # first two sizes tried already agree
    assert sorted(res.history) == [5, 6]


def test_stabilized_toeplitz_c3():
    d = 5
    res = stabilized_toeplitz(c3_symbol(d), d)
    assert res.value == macmahon(d)
    assert res.stabilized_at <= 40
    # the plateau is real: a larger matrix gives the same truncation
    wider = toeplitz_det(c3_symbol(d), res.stabilized_at + 2).truncate(d)
    assert wider == res.value


def test_stabilized_toeplitz_history_records_the_plateau():
    d = 4
    res = stabilized_toeplitz(c3_symbol(d), d)
    sizes = sorted(res.history)
    assert sizes[0] == d + 1
    assert sizes == list(range(d + 1, res.stabilized_at + 2))
    assert res.history[sizes[-1]] == res.history[sizes[-2]] == res.value


def test_growing_factorization_matches_per_size_determinants():
    for d in (6, 8):
        symbols = {"c3": c3_symbol(d)}
        symbols.update({f"theta{n}": conifold_symbol(n, d) for n in (0, 1, 2)})
        for name, f in symbols.items():
            res = stabilized_toeplitz(f, d)
            for size, det in res.history.items():
                assert det == toeplitz_det(f, size).truncate(d), (name, d, size)


def test_zero_leading_minor_is_rejected_with_its_size():
    one = TruncatedSeries.one(1, 3)
    # f = z: every section has a zero diagonal, singular from size 1 on
    with pytest.raises(StabilizationFailureError, match="size 1 "):
        stabilized_toeplitz(LaurentSymbol(1, 3, 4, {1: one}), 3)
    # f = 1/z + 1 + z: T_1 = [1], but T_2 = [[1, 1], [1, 1]] is singular
    with pytest.raises(StabilizationFailureError, match="size 2 "):
        stabilized_toeplitz(LaurentSymbol(1, 3, 4, {-1: one, 0: one, 1: one}), 3)


def test_stabilized_toeplitz_conifold_with_prefactor():
    d = 4
    for n in (0, 1):
        res = stabilized_toeplitz(conifold_symbol(n, d), d)
        got = prefactor_cn(n, d) * res.value
        assert got == enumerate_z(conifold_theta(n), d), n


def test_stabilization_failure_is_detected():
    # a constant-2 symbol has det 2^N, which never repeats
    two = TruncatedSeries(1, 2, {(0,): 2})
    f = LaurentSymbol(1, 2, 3, {0: two})
    with pytest.raises(StabilizationFailureError):
        stabilized_toeplitz(f, 2)


def test_stabilized_toeplitz_validation():
    with pytest.raises(ValueError):
        stabilized_toeplitz(c3_symbol(3), -1)
    with pytest.raises(ValueError):
        stabilized_toeplitz(c3_symbol(3), 4)
