"""Rational checks on the curve coefficients and the squared identity."""

import random
from fractions import Fraction

import pytest

from crystalmelt import (
    CurveParams,
    SingularParametersError,
    UnsupportedChamberError,
    mirror_map,
    random_curve_params,
    s3_equivariance_check,
    spp_identity_squared,
    spp_limit_check,
)
from crystalmelt import spectral


def test_mirror_map_hand_values():
    # Q=2/3, mu=1/5, eps2=1/7; binomials: 1+muQ = 17/15, 1+mu eps2 = 36/35,
    # 1+Q eps2 = 23/21. Then for instance
    #   Q1 = eps2 (1+muQ) / ((1+mu eps2)(1+Q eps2))
    #      = (1/7)(17/15) / ((36/35)(23/21)) = 119/828.
    p = CurveParams(Fraction(2, 3), Fraction(1, 5), Fraction(1, 7))
    c = mirror_map(p)
    assert c.Q1 == Fraction(119, 828)
    assert c.Q2 == Fraction(115, 612)
    assert c.Q3 == Fraction(216, 391)


def test_mirror_map_product_relation():
    # Q1 Q2 Q3 = eps2 mu Q / ((1+mu eps2)(1+Q eps2)(1+mu Q)): every binomial
    # sits in exactly two of the three denominators
    rng = random.Random(9)
    for _ in range(50):
        p = random_curve_params(rng)
        c = mirror_map(p)
        denom = (1 + p.mu * p.eps2) * (1 + p.Q * p.eps2) * (1 + p.mu * p.Q)
        assert c.Q1 * c.Q2 * c.Q3 == p.eps2 * p.mu * p.Q / denom


def test_mirror_map_singular_parameters():
    with pytest.raises(SingularParametersError):
        mirror_map(CurveParams(Fraction(2), Fraction(-1, 2), Fraction(1)))
    with pytest.raises(SingularParametersError):
        mirror_map(CurveParams(Fraction(3), Fraction(1), Fraction(-1, 3)))


def binomial_mirror_map(p):
    """The mirror map by its defining formula, one Fraction operation at a time."""
    q, mu, e = Fraction(p.Q), Fraction(p.mu), Fraction(p.eps2)
    b_me, b_qe, b_mq = 1 + mu * e, 1 + q * e, 1 + mu * q
    if b_me == 0 or b_qe == 0 or b_mq == 0:
        raise SingularParametersError("a mirror-map denominator vanishes")
    return (e * b_mq / (b_me * b_qe), mu * b_qe / (b_mq * b_me), q * b_me / (b_qe * b_mq))


def test_mirror_map_equals_the_binomial_formula():
    # signed, zero and singular triples: a cross sum vanishes exactly when
    # a binomial does, and otherwise every coefficient is the same rational
    rng = random.Random(1102)
    values = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    singular = 0
    for _ in range(3000):
        p = CurveParams(*(rng.choice(values) for _ in range(3)))
        try:
            expected = binomial_mirror_map(p)
        except SingularParametersError:
            singular += 1
            with pytest.raises(SingularParametersError):
                mirror_map(p)
            continue
        got = mirror_map(p)
        assert tuple(got) == expected, p
        assert all(type(c) is Fraction for c in got)
    assert singular > 0
    for _ in range(300):
        p = random_curve_params(rng)
        assert tuple(mirror_map(p)) == binomial_mirror_map(p)


def test_s3_equivariance_on_random_rationals():
    rng = random.Random(365)
    for _ in range(150):
        assert s3_equivariance_check(random_curve_params(rng))


def test_spp_limit_on_random_rationals():
    rng = random.Random(366)
    for _ in range(40):
        assert spp_limit_check(random_curve_params(rng))


def test_spp_limit_specific_point():
    assert spp_limit_check(CurveParams(Fraction(2, 3), Fraction(1, 5), Fraction(1, 7)))


def test_spp_identity_squared_small_degrees():
    for n in (1, 2):
        assert spp_identity_squared(n, 4), n


def test_spp_identity_validation():
    with pytest.raises(UnsupportedChamberError):
        spp_identity_squared(0, 4)
    with pytest.raises(ValueError):
        spp_identity_squared(1, -2)


def test_random_curve_params_are_positive_rationals():
    rng = random.Random(11)
    for _ in range(100):
        p = random_curve_params(rng)
        for v in p:
            assert isinstance(v, Fraction)
            assert 0 < v <= 40


def fraction_s3_check(p):
    """The equivariance check by comparing mirror_map's Fractions: the
    transposition that breaks the symmetry, or None."""
    base = mirror_map(p)
    cases = (
        ("mu<->Q", CurveParams(p.mu, p.Q, p.eps2), (base.Q1, base.Q3, base.Q2)),
        ("eps2<->mu", CurveParams(p.Q, p.eps2, p.mu), (base.Q2, base.Q1, base.Q3)),
        ("eps2<->Q", CurveParams(p.eps2, p.mu, p.Q), (base.Q3, base.Q2, base.Q1)),
    )
    for name, params, expected in cases:
        if tuple(mirror_map(params)) != expected:
            return name
    return None


def s3_verdicts(rng, count):
    """(triple, transposition the integer check names, the one the Fraction
    check names) per seeded non-singular triple, None where a check passes:
    signed triples with zeros and positive ones in turn."""
    values = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    out = []
    for i in range(count):
        if i % 2:
            p = random_curve_params(rng)
        else:
            p = CurveParams(*(rng.choice(values) for _ in range(3)))
        try:
            expected = fraction_s3_check(p)
        except SingularParametersError:
            with pytest.raises(SingularParametersError):
                s3_equivariance_check(p)
            continue
        res = s3_equivariance_check(p)
        assert (res is True) == (expected is None), p
        out.append((p, getattr(res, "permutation", None), expected))
    return out


def test_s3_integer_check_matches_the_fraction_check():
    verdicts = s3_verdicts(random.Random(2028), 1000)
    assert len(verdicts) > 900
    assert all(got is None and expected is None for _, got, expected in verdicts)


def test_s3_checks_both_catch_a_mutant_mirror_pairs(monkeypatch):
    # doubling Q1 keeps mu<->Q, which fixes Q1, and breaks eps2<->mu
    real = spectral._mirror_pairs

    def doubled_q1(p):
        (n, d), q2, q3 = real(p)
        return (2 * n, d), q2, q3

    monkeypatch.setattr(spectral, "_mirror_pairs", doubled_q1)
    verdicts = s3_verdicts(random.Random(2029), 1000)
    assert all(got == expected for _, got, expected in verdicts)
    positive = [got for p, got, _ in verdicts if min(p) > 0]
    assert len(positive) >= 500 and set(positive) == {"eps2<->mu"}
