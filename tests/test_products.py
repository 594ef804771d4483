"""Closed product forms: the root-data product, MacMahon, conifold chambers,
walls, and the spp top."""

import itertools
from collections import Counter

import pytest

from crystalmelt import (
    ChamberSpec,
    TruncatedSeries,
    UnsupportedChamberError,
    binomial_factor,
    c3_chamber,
    chamber_product,
    conifold_product,
    conifold_theta,
    enumerate_z,
    macmahon,
    macmahon_two_var,
    product_over_k,
    sigma,
    spp_top_squared,
    theta_inverse,
    wall_factor,
)
from crystalmelt.engines import engine_series
from oracles import plane_partition_counts

KNOWN_MACMAHON = (1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479)


def test_macmahon_against_bruteforce_oracle():
    oracle = plane_partition_counts(12)
    assert tuple(oracle) == KNOWN_MACMAHON
    z = macmahon(12)
    for n, c in enumerate(oracle):
        assert z.coefficient((n,)) == c, n


def test_macmahon_tiny():
    assert macmahon(0) == TruncatedSeries.one(1, 0)
    assert macmahon(1).terms == {(0,): 1, (1,): 1}


def test_macmahon_two_var_is_the_diagonal_substitution():
    d = 10
    one_var = macmahon(d)
    two = macmahon_two_var(d)
    for k in range(d // 2 + 1):
        assert two.coefficient((k, k)) == one_var.coefficient((k,))
    for exps in two.terms:
        assert exps[0] == exps[1], "off-diagonal term in the diagonal series"


def test_conifold_product_known_coefficients():
    z = conifold_product(0, 4)
    assert z.coefficient((0, 0)) == 1
    assert z.coefficient((1, 0)) == 1  # only (1+q0) contributes
    assert z.coefficient((0, 1)) == 0  # no factor produces bare q1
    assert z.coefficient((1, 1)) == 2  # the squared MacMahon diagonal


def test_conifold_product_nonnegative_coefficients():
    for n in range(4):
        z = conifold_product(n, 10)
        assert all(c >= 0 for c in z.terms.values()), n


def test_conifold_product_large_n_collapse():
    # once 2n+1 exceeds the cutoff the n-indexed family drops out entirely
    d = 7
    expected = macmahon_two_var(d) ** 2 * product_over_k(
        lambda k: binomial_factor(2, d, (k, k + 1), k), d
    )
    for n in (d, d + 2, d + 9):
        assert conifold_product(n, d) == expected, n


def test_wall_factor_moves_between_chambers():
    for n in (0, 1, 2):
        lhs = conifold_product(n + 1, 8) * wall_factor(n + 1, 8)
        assert lhs == conifold_product(n, 8), n
    with pytest.raises(ValueError):
        wall_factor(0, 4)


def test_spp_top_squared_validation_and_constant_term():
    with pytest.raises(UnsupportedChamberError):
        spp_top_squared(0, 4)
    f = spp_top_squared(1, 5)
    assert f.coefficient((0, 0)) == 1


def test_spp_top_squared_large_n_dropout():
    # with n >= D both n-shifted families sit beyond the cutoff
    d = 5
    expected = product_over_k(
        lambda k: binomial_factor(2, d, (k, k + 1), 2 * k), d
    ) * product_over_k(lambda k: binomial_factor(2, d, (k, k), -3 * k, sign=-1), d)
    assert spp_top_squared(d, d) == expected
    assert spp_top_squared(d + 4, d) == expected


def identity_chambers(L):
    return [ChamberSpec(L, rho, tuple(range(1, 2 * L, 2)))
            for rho in itertools.product((1, -1), repeat=L)]


def root_factor(spec, lo2, hi2, degree, exponent_sign=1, flip=False):
    """The binomial factor of the root counting the half-integers in (lo, hi]
    (doubled endpoints), raised to exponent_sign; flip uses the wrong sign."""
    L = spec.L
    counts = Counter(j % L for j in range((lo2 + 1) // 2, (hi2 + 1) // 2))
    alpha = tuple(counts[r] for r in range(L))
    s = 1 if sigma(spec, lo2) == sigma(spec, hi2) else -1
    if flip:
        s = -s
    return binomial_factor(L, degree, alpha, -s * alpha[0] * exponent_sign, sign=-s)


def test_chamber_product_equals_macmahon_on_c3():
    for d in range(23):
        assert chamber_product(c3_chamber(), d) == macmahon(d), d


def test_chamber_product_equals_conifold_product_on_theta_n():
    # every cutoff, so that each wall root (n, n - 1) also sits exactly at one
    for n in range(7):
        for d in range(13):
            assert chamber_product(conifold_theta(n), d) == conifold_product(n, d), (n, d)


def test_chamber_product_equals_enumeration_and_lgv_on_identity_chambers():
    # every rho for L = 2..5: 60 chambers, of which only L = 2, rho = (1, -1)
    # is a theta_n (theta_0)
    for L in range(2, 6):
        d = 6 if L < 5 else 5
        for spec in identity_chambers(L):
            z = chamber_product(spec, d)
            assert z == enumerate_z(spec, d), spec
            assert z == engine_series("lgv", spec, d)[0], spec


def reflect(spec, p):
    """s_p acting on the images of theta: the values with index p and p + 1
    (mod L) trade places."""
    L = spec.L

    def moved(t):
        m = (t - 1) // 2 % L
        return t + 2 if m == p else t - 2 if m == (p + 1) % L else t

    return ChamberSpec(L, spec.rho, tuple(moved(t) for t in spec.theta))


def test_wall_crossing_changes_exactly_one_root_factor():
    # s_p swaps the values p + 1/2 and p + 3/2, so it toggles exactly one pair
    # of positions, theta^-1(p + 1/2) and theta^-1(p + 3/2), in the inversion
    # set; the two products differ by that root's factor and nothing else
    d = 8
    L = 3
    seen_nontrivial = 0
    for start in identity_chambers(L):
        for p in range(L):
            spec = reflect(start, p)
            z = chamber_product(spec, d)
            for q in range(L):
                neighbour = reflect(spec, q)
                i2 = theta_inverse(spec, 2 * q + 1)
                j2 = theta_inverse(spec, 2 * q + 3)
                factor = root_factor(spec, min(i2, j2), max(i2, j2), d)
                seen_nontrivial += factor != TruncatedSeries.one(L, d)
                if i2 < j2:  # the pair becomes an inversion: its factor goes
                    assert chamber_product(neighbour, d) * factor == z, (spec, q)
                else:  # the pair stops being one: its factor comes back
                    assert z * factor == chamber_product(neighbour, d), (spec, q)
    assert seen_nontrivial > 0


def test_sign_and_root_mutants_disagree_with_enumeration():
    # fault injection in the test: flip one root's sign, or drop one root
    for L in range(2, 5):
        d = 5
        for spec in identity_chambers(L):
            z = chamber_product(spec, d)
            counted = enumerate_z(spec, d)
            assert z == counted, spec
            for a in range(L):
                for b in range(a + 1, a + d // 2 + 1):
                    if (b - a) % L == 0 or a != 0 and b <= L:
                        continue  # a multiple of delta, or a root with alpha_0 = 0
                    lo2, hi2 = 2 * a - 1, 2 * b - 1
                    without = z * root_factor(spec, lo2, hi2, d, exponent_sign=-1)
                    flipped = without * root_factor(spec, lo2, hi2, d, flip=True)
                    assert without != counted, (spec, a, b)
                    assert flipped != counted, (spec, a, b)
