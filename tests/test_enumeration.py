"""Direct enumeration of partition evolutions across chambers."""

import itertools
import random

import pytest

from crystalmelt import (
    ChamberSpec,
    TruncatedSeries,
    UnsupportedChamberError,
    box_budget,
    c3_chamber,
    conifold_product,
    conifold_theta,
    enumerate_z,
    enumerate_z_rows,
    enumerate_z_transposed,
    lgv_det,
    macmahon,
    sweep_window,
    walker_graph,
)
from crystalmelt import enumeration
from crystalmelt.enumeration import _enumerate
from oracles import plane_partition_counts


def test_c3_counts_plane_partitions():
    got = enumerate_z(c3_chamber(), 8)
    expected = plane_partition_counts(8)
    for n in range(9):
        assert got.coefficient((n,)) == expected[n], n


def test_degree_zero_is_one_everywhere():
    for spec in (c3_chamber(), conifold_theta(0), conifold_theta(2)):
        z = enumerate_z(spec, 0)
        assert z == TruncatedSeries.one(spec.L, 0)


def test_degree_validation():
    with pytest.raises(ValueError):
        enumerate_z(c3_chamber(), -1)


def test_box_budget_values():
    assert box_budget(c3_chamber(), 7) == 7
    assert box_budget(conifold_theta(0), 7) == 7
    # theta_1 weights include q0^-1, so the budget stretches to D(2n+3)/3
    assert box_budget(conifold_theta(1), 6) == 10
    assert box_budget(conifold_theta(2), 6) == 14
    with pytest.raises(UnsupportedChamberError):
        box_budget(ChamberSpec(2, (1, -1), (5, -1)), 4)


def test_sweep_window_covers_the_naive_window():
    for spec in (c3_chamber(), conifold_theta(0), conifold_theta(3)):
        for d in (0, 2, 5):
            b = box_budget(spec, d)
            lo, hi = sweep_window(spec, d, b)
            assert lo <= -d * spec.L - spec.L
            assert hi >= d * spec.L + spec.L


def test_conifold_enumeration_matches_product_small():
    for n in (0, 1):
        assert enumerate_z(conifold_theta(n), 6) == conifold_product(n, 6)


def test_c3_matches_macmahon_small():
    assert enumerate_z(c3_chamber(), 9) == macmahon(9)


def test_transposed_sweep_agrees():
    assert enumerate_z_transposed(c3_chamber(), 6) == enumerate_z(c3_chamber(), 6)
    for n in (0, 1):
        spec = conifold_theta(n)
        assert enumerate_z_transposed(spec, 6) == enumerate_z(spec, 6)


def test_row_restriction_is_monotone_and_saturates():
    spec = c3_chamber()
    d = 6
    full = enumerate_z(spec, d)
    prev = None
    for rows in range(d + 1):
        z = enumerate_z_rows(spec, d, rows)
        if prev is not None:
            # every configuration counted at fewer rows is still counted
            for exps, coef in prev.terms.items():
                assert z.coefficient(exps) >= coef
        prev = z
    # a partition with k boxes has at most k rows, so max_rows = d suffices
    assert enumerate_z_rows(spec, d, d) == full
    assert enumerate_z_rows(conifold_theta(0), 4, 4) == enumerate_z(conifold_theta(0), 4)


def test_single_row_restriction_on_c3():
    # slices limited to one part: stacks of rows r(t) with r interlacing,
    # small enough to pin by hand through degree 3:
    # {} | (1) | (2) | (1)(1) | (3) | (2)(1) | (1)(1)(1)
    z = enumerate_z_rows(c3_chamber(), 3, 1)
    assert z.coefficient((0,)) == 1
    assert z.coefficient((1,)) == 1
    assert z.coefficient((2,)) == 2
    assert z.coefficient((3,)) == 3


def test_widening_budget_and_window_changes_nothing():
    rng = random.Random(12021)
    cases = (
        (c3_chamber(), 5),
        (conifold_theta(0), 4),
        (conifold_theta(1), 4),
        (conifold_theta(2), 4),
        (conifold_theta(2), 5),
        (conifold_theta(3), 4),
        (conifold_theta(3), 5),
        # theta_n kept configurations use the whole budget at degree 3
        (conifold_theta(2), 3),
        (conifold_theta(3), 3),
    )
    for spec, d in cases:
        b = box_budget(spec, d)
        lo, hi = sweep_window(spec, d, b)
        extra = rng.randint(1, 3)
        for transposed, engine in ((False, enumerate_z), (True, enumerate_z_transposed)):
            widened = _enumerate(
                spec,
                d,
                transposed=transposed,
                budget=b + extra,
                window=(lo - extra * spec.L, hi + extra * spec.L),
            )
            assert widened == engine(spec, d), (spec, d, transposed)


def test_window_longer_than_the_recursion_limit():
    # the lookahead walks its chains of least successors without recursing
    window = (-3000, 3000)
    assert _enumerate(c3_chamber(), 3, transposed=False, window=window) == macmahon(3)


def test_over_eager_lookahead_is_caught(monkeypatch):
    # one box more than the true bound drops exactly the configurations that
    # use the whole budget; c3 spends it at every degree, theta_2 at degree 3
    true_bound = enumeration.least_future
    monkeypatch.setattr(
        enumeration, "least_future", lambda *args: true_bound(*args) + 1
    )
    assert enumerate_z(c3_chamber(), 6) != macmahon(6)
    assert enumerate_z(conifold_theta(2), 3) != conifold_product(2, 3)


def test_single_peak_general_chambers_agree_across_routes():
    # identity theta with every sign vector: the chambers with genuine weights
    # and one peak at L = 3, 4, outside the c3 and conifold families
    d = 4
    for L in (3, 4):
        for rho in itertools.product((1, -1), repeat=L):
            spec = ChamberSpec(L, rho, tuple(range(1, 2 * L, 2)))
            z = enumerate_z(spec, d)
            assert z == enumerate_z_transposed(spec, d), rho
            assert z == lgv_det(walker_graph(spec, d, d)), rho


def test_unsupported_laurent_chamber_raises():
    with pytest.raises(UnsupportedChamberError):
        enumerate_z(ChamberSpec(2, (1, -1), (5, -1)), 3)
