"""Ring-level checks for truncated series, Laurent symbols, and determinants."""

import itertools
import random

import pytest

from crystalmelt import (
    ChamberSpec,
    DimensionError,
    LaurentSymbol,
    NonTerminatingProductError,
    NotInvertibleError,
    TruncatedSeries,
    binomial_factor,
    c3_chamber,
    chamber_symbol,
    conifold_theta,
    det_division_free,
    path_matrix,
    product_over_k,
    walker_graph,
)
from crystalmelt import engines, lgv, matrixmodel
from crystalmelt import series as series_module
from crystalmelt.series import _berkowitz
from oracles import shifted_chamber_data, tuple_invert, tuple_mul, unit_pivots


def section_det(f, n):
    """det of the explicit n x n Toeplitz section G_{i-j} of the symbol f."""
    return det_division_free([[f.coefficient(i - j) for j in range(n)] for i in range(n)])


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
    with pytest.raises(DimensionError):
        det_division_free([[a, a], [c, c]])


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
    for spec in [c3_chamber()] + [conifold_theta(n) for n in (0, 1, 2)]:
        f = chamber_symbol(spec, d)
        for size in range(1, d + 3):
            m = [[f.coefficient(i - j) for j in range(size)] for i in range(size)]
            assert section_det(f, size) == _berkowitz(m)
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


def test_toeplitz_det_reflection_gives_the_transpose():
    rng = random.Random(31337)
    for _ in range(20):
        coeffs = {m: random_series(rng, 1, 3) for m in range(-2, 3)}
        f = LaurentSymbol(1, 3, 5, coeffs)
        reflected = LaurentSymbol(1, 3, 5, {-m: s for m, s in coeffs.items()})
        n = rng.randint(1, 4)
        assert section_det(f, n) == section_det(reflected, n)


# -- packed keys against the tuple-key oracle ---------------------------------

# L = 1-6 at every cutoff 0-17, which spans the field-width boundaries 1/2,
# 3/4, 7/8 and 15/16 (the last cutoffs of 1-4 bits and the first of 2-5)
KERNEL_RINGS = [(L, D) for L in range(1, 7) for D in range(18)]


def random_monomial(rng, num_vars, degree):
    """An exponent tuple of the given total degree, spread at random."""
    exps = [0] * num_vars
    for _ in range(degree):
        exps[rng.randrange(num_vars)] += 1
    return tuple(exps)


def kernel_series(rng, num_vars, cutoff, unit=False):
    """Random {exponent tuple: coefficient} dict of the ring, often holding a
    single-variable power at the cutoff, which fills its whole field."""
    terms = {}
    for _ in range(rng.randint(0, 7)):
        e = random_monomial(rng, num_vars, rng.randint(0, cutoff))
        terms[e] = rng.randint(-3, 3)
    if rng.random() < 0.5:
        e = [0] * num_vars
        e[rng.randrange(num_vars)] = cutoff
        terms[tuple(e)] = rng.choice((-1, 1))
    if unit:
        terms[(0,) * num_vars] = rng.choice((-1, 1))
    return {e: c for e, c in terms.items() if c}


def oracle_pow(terms, k, num_vars, cutoff):
    out = {(0,) * num_vars: 1}
    for _ in range(k):
        out = tuple_mul(out, terms, cutoff)
    return out


def oracle_sum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def kernel_mismatches(seed):
    """Every ring operation on seeded random series of KERNEL_RINGS against
    the tuple-key oracle: the operations whose terms differ, by name."""
    rng = random.Random(seed)
    bad = []

    def check(name, series, expected):
        # two keys decoding to one tuple would shorten the decoded dict
        if dict(series.terms.items()) != expected or len(series.terms) != len(expected):
            bad.append((name, series.num_vars, series.cutoff))

    for L, D in KERNEL_RINGS:
        for _ in range(4):
            a, b = kernel_series(rng, L, D), kernel_series(rng, L, D)
            u = kernel_series(rng, L, D, unit=True)
            sa, sb, su = (TruncatedSeries(L, D, t) for t in (a, b, u))
            check("*", sa * sb, tuple_mul(a, b, D))
            check("+", sa + sb, oracle_sum(a, b))
            check("-", sa - sb, oracle_sum(a, b, -1))
            k = rng.randint(0, 3)
            check("**", sa**k, oracle_pow(a, k, L, D))
            inverse = tuple_invert(u, L, D)
            check("invert", su.invert(), inverse)
            check("** -", su**-2, oracle_pow(inverse, 2, L, D))
            d = rng.randint(0, D)
            check("truncate", sa.truncate(d), {e: c for e, c in a.items() if sum(e) <= d})
            exps = random_monomial(rng, L, rng.randint(1, D + 1))
            n, sign = rng.randint(-3, 3), rng.choice((1, -1))
            base = {(0,) * L: 1, exps: sign} if sum(exps) <= D else {(0,) * L: 1}
            expected = oracle_pow(base if n >= 0 else tuple_invert(base, L, D), abs(n), L, D)
            check("binomial_factor", binomial_factor(L, D, exps, n, sign=sign), expected)
            for e in list(a) + [random_monomial(rng, L, rng.randint(0, D))]:
                if sa.coefficient(e) != a.get(e, 0):
                    bad.append(("coefficient", L, D))
    return bad


def test_packed_kernel_matches_the_tuple_oracle():
    for seed in (1, 2):
        assert kernel_mismatches(seed) == [], seed


def test_codec_one_bit_short_is_caught(monkeypatch):
    # one bit less per field lets an exponent of the cutoff carry into the
    # next field; the differential check must see it
    monkeypatch.setattr(
        series_module,
        "_codec",
        lambda L, D: series_module._Codec(L, D, max(1, D.bit_length() - 1)),
    )
    assert kernel_mismatches(1)


def test_codec_round_trip_addition_and_order():
    rng = random.Random(2718)
    for L, D in KERNEL_RINGS + [(10, 100)]:
        codec = series_module._codec(L, D)
        monomials = [random_monomial(rng, L, rng.randint(0, D)) for _ in range(30)]
        monomials += [tuple(D if i == j else 0 for i in range(L)) for j in range(L)]
        keys = [codec.pack(e) for e in monomials]
        for e, k in zip(monomials, keys):
            assert codec.unpack(k) == e
            assert codec.key(e) == k
            # keys sort by degree first: the degree-d keys lie in [d, d + 1) << shift
            assert sum(e) << codec.shift <= k < (sum(e) + 1) << codec.shift
        for ea, ka in zip(monomials, keys):
            for eb, kb in zip(monomials[:8], keys[:8]):
                total = sum(ea) + sum(eb)
                assert (ka + kb < codec.cap) == (total <= D)
                if total <= D:
                    assert ka + kb == codec.pack(tuple(x + y for x, y in zip(ea, eb)))


def test_keys_past_two_to_the_62_work():
    rng = random.Random(62)
    L, D = 10, 100
    a = {random_monomial(rng, L, rng.randint(0, D)): rng.randint(1, 5) for _ in range(12)}
    a[(0,) * (L - 1) + (D,)] = 1
    u = dict(a)
    u[(0,) * L] = 1
    sa, su = TruncatedSeries(L, D, a), TruncatedSeries(L, D, u)
    assert max(sa._packed) > 2**62
    assert dict((sa * sa).terms.items()) == tuple_mul(a, a, D)
    assert dict(su.invert().terms.items()) == tuple_invert(u, L, D)
    assert su * su.invert() == TruncatedSeries.one(L, D)
    assert dict(sa.terms.items()) == a


def test_truncate_across_a_width_change_equals_the_constructor():
    rng = random.Random(1615)
    for L in range(1, 5):
        for high, low in ((16, 15), (8, 7), (16, 7), (2, 1)):
            assert series_module._codec(L, high).width != series_module._codec(L, low).width
            for _ in range(6):
                a = kernel_series(rng, L, high)
                got = TruncatedSeries(L, high, a).truncate(low)
                assert got == TruncatedSeries(L, low, a)
                assert dict(got.terms.items()) == {e: c for e, c in a.items() if sum(e) <= low}


def test_coefficient_of_a_tuple_outside_the_ring_is_zero():
    # every monomial of the ring gets its own non-zero coefficient, so a
    # tuple packing onto another monomial's key would read that coefficient
    for L, D in ((1, 7), (2, 8), (3, 3)):
        codec = series_module._codec(L, D)
        dense = {}
        for d in range(D + 1):
            for e in itertools.product(range(d + 1), repeat=L):
                if sum(e) == d:
                    dense[e] = len(dense) + 1
        f = TruncatedSeries(L, D, dense)
        assert all(f.coefficient(e) == c for e, c in dense.items())
        full = 1 << codec.width
        outside = [
            (0,) * (L + 1),
            (1,) * (L + 1),
            (0,) * (L - 1),
            (-1,) + (1,) * (L - 1),
            (-full,) + (1,) * (L - 1),
            (D + 1,) + (0,) * (L - 1),
            (full,) + (0,) * (L - 1),
            (D,) * L if L > 1 else (D, 0),
            (0,) * (L - 1) + (2 * D,),
        ]
        for e in outside:
            assert f.coefficient(e) == 0, e
            assert e not in f.terms and f.terms.get(e) is None, e


def test_term_view_length_reads_no_key():
    f = TruncatedSeries(2, 16, {(16, 0): 1, (3, 4): -2, (0, 0): 5})

    class Boom(series_module._Codec):
        def unpack(self, key):
            raise AssertionError("len() decoded a key")

    view = f.terms
    view._codec = Boom(2, 16, 5)
    assert len(view) == 3


def elimination_record(eliminate, matrix):
    """What an elimination of a copy of matrix shows: its (p, pivot terms)
    sequence and the packed terms of the Schur complement it leaves in
    rows[c:], columns c on (none when every column took a pivot)."""
    rows = [list(row) for row in matrix]
    steps = [(p, pivot._packed) for p, pivot in eliminate(rows)]
    c = len(steps)
    return steps, [[entry._packed for entry in row[c:]] for row in rows[c:]]


def assert_elimination_matches_the_oracle(matrix, label):
    inputs = {id(entry): entry for row in matrix for entry in row}
    before = {key: dict(entry._packed) for key, entry in inputs.items()}
    got = elimination_record(series_module._unit_pivots, matrix)
    assert {key: entry._packed for key, entry in inputs.items()} == before, label
    assert got == elimination_record(unit_pivots, matrix), label


def test_unit_pivots_match_the_whole_series_oracle_on_the_route_matrices():
    # T_{R+1} as stabilized_toeplitz builds it, whose entries share one
    # series per diagonal, and the lgv route's R-walker path matrix, each in
    # its route's orientation, on every chamber of the L = 2..4 scans
    for L, shift, degree in ((2, 3, 6), (3, 2, 5), (4, 1, 4)):
        for data in shifted_chamber_data(L, shift):
            spec = ChamberSpec(*data)
            size = matrixmodel._split_steps(spec, degree).size + 1
            symbol = chamber_symbol(spec, degree)
            zero = TruncatedSeries.zero(L, degree)
            toeplitz = [[symbol.coeffs.get(i - j, zero) for j in range(size)] for i in range(size)]
            assert_elimination_matches_the_oracle(toeplitz, (spec, "toeplitz"))
            count, steps = engines._lgv_route(spec, degree)
            walkers = lgv._walker_transfer(L, count, degree, steps)
            assert_elimination_matches_the_oracle(walkers, (spec, "lgv"))


def test_unit_pivots_match_the_whole_series_oracle_on_random_matrices():
    # constant terms from units and non-units make row swaps, and stalls
    # after a pivot whose Schur complement goes back to Berkowitz; repeated
    # series objects must come back unmutated, and a repeated row cancels
    # to entries whose zero coefficients must not be handed back
    rng = random.Random(2718)
    swaps = stalls = 0
    for trial in range(120):
        L, D, n = rng.randint(1, 4), rng.randint(0, 7), rng.randint(1, 6)
        constants = (
            stalling_constants(rng, n)
            if trial % 3 == 0
            else [[rng.choice((-1, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
        )
        pool = []
        for row in constants:
            for c in row:
                terms = kernel_series(rng, L, D)
                terms[(0,) * L] = c
                pool.append(TruncatedSeries(L, D, terms))
        matrix = [pool[i * n : (i + 1) * n] for i in range(n)]
        if trial % 2:
            shared = rng.choice(pool)
            for _ in range(n):
                matrix[rng.randrange(n)][rng.randrange(n)] = shared
            matrix[rng.randrange(n)] = list(matrix[rng.randrange(n)])
        steps, rest = elimination_record(series_module._unit_pivots, matrix)
        swaps += any(p != c for c, (p, _) in enumerate(steps))
        stalls += bool(steps and rest)
        assert_elimination_matches_the_oracle(matrix, trial)
    assert swaps >= 20 and stalls >= 40, (swaps, stalls)
