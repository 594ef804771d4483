"""Ring-level checks for truncated series, Laurent symbols, and determinants."""

import random

import pytest

from crystalmelt import (
    DimensionError,
    LaurentSymbol,
    NonTerminatingProductError,
    NotInvertibleError,
    TruncatedSeries,
    binomial_factor,
    c3_chamber,
    c3_symbol,
    conifold_symbol,
    conifold_theta,
    det_division_free,
    path_matrix,
    product_over_k,
    toeplitz_det,
    walker_graph,
)
from crystalmelt import series as series_module
from crystalmelt.series import _berkowitz


def random_series(rng, num_vars, cutoff, max_terms=6, unit=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, cutoff) for _ in range(num_vars))
        if sum(exps) <= cutoff:
            terms[exps] = rng.randint(-4, 4)
    if unit:
        terms[(0,) * num_vars] = rng.choice([1, -1])
    return TruncatedSeries(num_vars, cutoff, terms)


def test_constructor_drops_zero_and_overweight_terms():
    f = TruncatedSeries(2, 3, {(1, 1): 2, (2, 2): 7, (0, 1): 0})
    assert f.terms == {(1, 1): 2}
    assert f.coefficient((2, 2)) == 0


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(1,): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(1, 3, {(-1,): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(0, 3)
    with pytest.raises(ValueError):
        TruncatedSeries(1, -1)


def test_monomial_beyond_cutoff_is_zero():
    assert TruncatedSeries.monomial(1, 2, (5,)).is_zero()


def test_ring_axioms_on_seeded_random_series():
    rng = random.Random(90125)
    for _ in range(120):
        nv = rng.randint(1, 3)
        d = rng.randint(0, 6)
        a = random_series(rng, nv, d)
        b = random_series(rng, nv, d)
        c = random_series(rng, nv, d)
        one = TruncatedSeries.one(nv, d)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a + b == b + a
        assert a - a == TruncatedSeries.zero(nv, d)
        assert -(-a) == a


def degree_one_or_more(rng, num_vars):
    exps = tuple(rng.randint(0, 2) for _ in range(num_vars))
    return exps if sum(exps) else (1,) + exps[1:]


def assert_clean(r):
    """r holds exactly the terms the validating constructor would keep."""
    assert r == TruncatedSeries(r.num_vars, r.cutoff, r.terms)
    for e, c in r.terms.items():
        assert c != 0, (e, c)
        assert type(e) is tuple and len(e) == r.num_vars, e
        assert min(e) >= 0 and sum(e) <= r.cutoff, e


def test_ring_operations_build_clean_terms():
    """Ring operations skip the constructor's checks, so check their results."""
    rng = random.Random(4096)
    for _ in range(150):
        nv = rng.randint(1, 3)
        d = rng.randint(0, 6)
        a = random_series(rng, nv, d, max_terms=8)
        b = random_series(rng, nv, d, max_terms=8)
        u = random_series(rng, nv, d, unit=True)
        k = rng.randint(-3, 3)
        a_terms, b_terms = dict(a.terms), dict(b.terms)
        images = [degree_one_or_more(rng, nv) for _ in range(nv)]
        exps = degree_one_or_more(rng, nv)
        results = [
            a + b,
            a - b,
            -a,
            a * b,
            a * k,
            k * a,
            a + (-a),
            a - a,
            a * 0,
            0 * a,
            a ** rng.randint(0, 3),
            u ** -rng.randint(1, 2),
            u.invert(),
            a.truncate(rng.randint(0, d)),
            a.substitute(images, nv),
            binomial_factor(nv, d, exps, rng.randint(-3, 3), sign=rng.choice((1, -1))),
        ]
        for r in results:
            assert_clean(r)
        for r in (a + (-a), a - a, a * 0, 0 * a):
            assert r.is_zero()
        assert a.terms == a_terms and b.terms == b_terms
    # (1 + q)(1 - q) cancels q inside the product; truncation drops q^2
    for nv in (1, 2, 3):
        for d in (0, 1, 2, 3):
            one = TruncatedSeries.one(nv, d)
            q = TruncatedSeries.monomial(nv, d, (1,) + (0,) * (nv - 1))
            r = (one + q) * (one - q)
            assert_clean(r)
            assert r == one - q * q
            assert_clean(r.truncate(min(d, 1)))
            assert r.truncate(min(d, 1)) == one.truncate(min(d, 1))
    # q0 - q1 vanishes when both variables map to the same image
    f = TruncatedSeries(2, 4, {(1, 0): 1, (0, 1): -1, (2, 0): 3})
    g = f.substitute([(1, 1), (1, 1)], 2)
    assert_clean(g)
    assert g.terms == {(2, 2): 3}


def test_public_entry_points_still_validate():
    with pytest.raises(ValueError):
        binomial_factor(2, 4, (1,), 1)
    with pytest.raises(ValueError):
        binomial_factor(2, 4, (2, -1), 1)
    with pytest.raises(ValueError):
        binomial_factor(2, 0, (2, -1), 1)  # rejected even when no term reaches it
    with pytest.raises(ValueError):
        binomial_factor(1, -1, (1,), 1)
    with pytest.raises(ValueError):
        TruncatedSeries.one(1, 3).truncate(-1)
    with pytest.raises(ValueError):
        TruncatedSeries.one(2, 3).substitute([(1,), (1,)], 2)


def test_pow():
    rng = random.Random(3)
    f = random_series(rng, 2, 5, unit=True)
    assert f**0 == TruncatedSeries.one(2, 5)
    assert f**3 == f * f * f
    assert f ** (-2) == (f.invert()) ** 2
    with pytest.raises(NotInvertibleError):
        TruncatedSeries.monomial(1, 3, (1,)) ** (-1)


def test_mixed_ring_operations_rejected():
    a = TruncatedSeries.one(1, 3)
    b = TruncatedSeries.one(2, 3)
    c = TruncatedSeries.one(1, 4)
    with pytest.raises(DimensionError):
        a + b
    with pytest.raises(DimensionError):
        a * c


def test_truncate_is_multiplicative():
    rng = random.Random(17)
    for _ in range(60):
        a = random_series(rng, 2, 6)
        b = random_series(rng, 2, 6)
        d = rng.randint(0, 6)
        assert (a * b).truncate(d) == a.truncate(d) * b.truncate(d)
    with pytest.raises(ValueError):
        TruncatedSeries.one(1, 2).truncate(3)


def test_invert_is_two_sided():
    rng = random.Random(5150)
    for _ in range(80):
        f = random_series(rng, rng.randint(1, 2), rng.randint(0, 6), unit=True)
        g = f.invert()
        assert f * g == TruncatedSeries.one(f.num_vars, f.cutoff)
        assert g * f == TruncatedSeries.one(f.num_vars, f.cutoff)


def test_invert_requires_unit_constant_term():
    with pytest.raises(NotInvertibleError):
        TruncatedSeries.monomial(1, 4, (1,)).invert()
    with pytest.raises(NotInvertibleError):
        TruncatedSeries(1, 4, {(0,): 2}).invert()


def test_substitute_diagonal():
    # q -> q0*q1 sends degree-k terms to the (k,k) diagonal
    f = TruncatedSeries(1, 4, {(0,): 1, (1,): 5, (2,): -3})
    g = f.substitute([(1, 1)], 2)
    assert g.coefficient((0, 0)) == 1
    assert g.coefficient((1, 1)) == 5
    assert g.coefficient((2, 2)) == -3
    with pytest.raises(ValueError):
        f.substitute([(0, 0)], 2)


def test_binomial_factor_geometric_series():
    f = binomial_factor(1, 5, (1,), -1, sign=-1)  # 1/(1-q)
    assert f.terms == {(k,): 1 for k in range(6)}
    g = binomial_factor(1, 5, (1,), 2)  # (1+q)^2
    assert g.terms == {(0,): 1, (1,): 2, (2,): 1}
    assert binomial_factor(2, 6, (1, 2), 0) == TruncatedSeries.one(2, 6)
    with pytest.raises(ValueError):
        binomial_factor(2, 6, (0, 0), 1)


def test_binomial_factor_matches_repeated_multiplication():
    rng = random.Random(808)
    for _ in range(40):
        d = rng.randint(0, 8)
        exps = (rng.randint(0, 2), rng.randint(1, 2))
        e = rng.randint(1, 4)
        sign = rng.choice([1, -1])
        base = TruncatedSeries(2, d, {(0, 0): 1, exps: sign})
        assert binomial_factor(2, d, exps, e, sign=sign) == base**e
        inv = binomial_factor(2, d, exps, -e, sign=sign)
        assert inv * base**e == TruncatedSeries.one(2, d)


def test_product_over_k_stops_once_factors_leave_the_window():
    calls = []

    def factor(k):
        calls.append(k)
        return binomial_factor(1, 4, (k,), 1)

    f = product_over_k(factor, 4)
    # (1+q)(1+q^2)(1+q^3)(1+q^4), factor(5) probed and discarded
    assert f.coefficient((4,)) == 2  # q^4 and q*q^3
    assert calls == [1, 2, 3, 4, 5]


def test_product_over_k_guards_against_constant_factor_streams():
    with pytest.raises(NonTerminatingProductError):
        product_over_k(lambda k: binomial_factor(1, 3, (1,), 1), 3, max_factors=50)
    with pytest.raises(ValueError):
        product_over_k(lambda k: TruncatedSeries.monomial(1, 3, (0,), 2), 3)


def test_symbol_window_and_coefficients():
    one = TruncatedSeries.one(1, 3)
    f = LaurentSymbol(1, 3, 2, {0: one, 1: one, 5: one})
    assert f.coefficient(5).is_zero()  # clipped by the window
    assert f.coefficient(1) == one
    assert f.coefficient(-2).is_zero()


def test_symbol_multiplication_against_hand_expansion():
    one = TruncatedSeries.one(1, 4)
    q = TruncatedSeries.monomial(1, 4, (1,))
    f = LaurentSymbol(1, 4, 3, {0: one, 1: q})  # 1 + q z
    g = LaurentSymbol(1, 4, 3, {-1: q, 0: one})  # q/z + 1
    fg = f * g
    assert fg.coefficient(-1) == q
    assert fg.coefficient(0) == one + q * q
    assert fg.coefficient(1) == q
    assert fg.coefficient(2).is_zero()


def cofactor_det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def with_constant_term(rng, c, cutoff=4):
    """Random one-variable series whose constant term is c."""
    s = random_series(rng, 1, cutoff)
    return s + TruncatedSeries.monomial(1, cutoff, (0,), c - s.constant_term())


def stalling_constants(rng, n):
    """Constant terms for an order-n matrix whose elimination stalls at a
    random column k: the columns before k are unit upper-triangular mod q, so
    eliminating them leaves the later constant terms as they are, and column k
    holds only 0 or 2 from row k down, so it has no unit pivot."""
    k = rng.randint(0, n - 1)
    constants = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for j in range(k):
        constants[j][j] = rng.choice((1, -1))
        for i in range(j + 1, n):
            constants[i][j] = 0
    for i in range(k, n):
        constants[i][k] = rng.choice((0, 2))
    return constants


def test_det_division_free_matches_cofactor_expansion(monkeypatch):
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[random_series(rng, 1, 4) for _ in range(n)] for _ in range(n)]
        assert det_division_free(m) == cofactor_det(m)
    # constant terms drawn from units and non-units: pivots, row swaps, stalls
    for _ in range(30):
        n = rng.randint(1, 5)
        constants = [[rng.choice((-1, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
        m = [[with_constant_term(rng, c) for c in row] for row in constants]
        assert det_division_free(m) == cofactor_det(m)
    # no unit pivot in some column: the Berkowitz fallback finishes the block
    fallbacks = []
    berkowitz = series_module._berkowitz
    monkeypatch.setattr(
        series_module, "_berkowitz", lambda m: fallbacks.append(m) or berkowitz(m)
    )
    for n in (1, 2, 3, 4, 5, 5, 5):
        m = [[with_constant_term(rng, c) for c in row] for row in stalling_constants(rng, n)]
        before = len(fallbacks)
        assert det_division_free(m) == cofactor_det(m)
        assert len(fallbacks) == before + 1


def test_det_division_free_matches_berkowitz_on_engine_matrices():
    d = 6
    symbols = [c3_symbol(d)] + [conifold_symbol(n, d) for n in (0, 1, 2)]
    for f in symbols:
        for size in range(1, d + 3):
            m = [[f.coefficient(i - j) for j in range(size)] for i in range(size)]
            assert toeplitz_det(f, size) == _berkowitz(m)
    for spec, degree in ((c3_chamber(), 5), (conifold_theta(0), 4)):
        for walkers in (degree, degree + 1):
            m = path_matrix(walker_graph(spec, walkers, degree))
            assert det_division_free(m) == _berkowitz(m)


def test_det_transpose_invariance():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = [[random_series(rng, 2, 3) for _ in range(n)] for _ in range(n)]
        mt = [[m[j][i] for j in range(n)] for i in range(n)]
        assert det_division_free(m) == det_division_free(mt)


def test_det_of_identity_and_swapped_rows():
    one = TruncatedSeries.one(1, 2)
    zero = TruncatedSeries.zero(1, 2)
    eye = [[one, zero], [zero, one]]
    assert det_division_free(eye) == one
    assert det_division_free([eye[1], eye[0]]) == -one


def test_toeplitz_det_against_explicit_matrix():
    rng = random.Random(777)
    for _ in range(20):
        coeffs = {m: random_series(rng, 1, 4) for m in range(-3, 4)}
        f = LaurentSymbol(1, 4, 6, coeffs)
        n = rng.randint(1, 4)
        explicit = [[f.coefficient(i - j) for j in range(n)] for i in range(n)]
        assert toeplitz_det(f, n) == det_division_free(explicit)


def test_toeplitz_det_reflection_gives_the_transpose():
    rng = random.Random(31337)
    for _ in range(20):
        coeffs = {m: random_series(rng, 1, 3) for m in range(-2, 3)}
        f = LaurentSymbol(1, 3, 5, coeffs)
        reflected = LaurentSymbol(1, 3, 5, {-m: s for m, s in coeffs.items()})
        n = rng.randint(1, 4)
        assert toeplitz_det(f, n) == toeplitz_det(reflected, n)
