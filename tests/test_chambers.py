import random
from math import isqrt
from operator import add, sub

import pytest

from crystalmelt import (
    ChamberSpec,
    c3_chamber,
    chamber_weight,
    chamber_weights,
    conifold_theta,
    enumerate_z,
    enumerate_z_rows,
    sigma,
    theta_inverse,
    theta_value,
)
from crystalmelt import chambers, engines, enumeration, matrixmodel
from crystalmelt.chambers import conifold_index, potential_steps, row_bound
from crystalmelt.engines import engine_series
from oracles import genuine_weights, peak_slices, shifted_chamber_data, slice_rule, theta_preimage


def random_valid_chamber(rng, L):
    """Any valid theta is a permuted base image plus period shifts summing to 0."""
    base = [2 * r + 1 for r in range(L)]
    rng.shuffle(base)
    shifts = [rng.randint(-2, 2) for _ in range(L)]
    shifts[-1] -= sum(shifts)
    theta = tuple(b + 2 * L * s for b, s in zip(base, shifts))
    rho = tuple(rng.choice([1, -1]) for _ in range(L))
    return ChamberSpec(L, rho, theta)


def test_c3_and_conifold_constructors():
    c3 = c3_chamber()
    assert (c3.L, c3.rho, c3.theta) == (1, (1,), (1,))
    for n in range(5):
        spec = conifold_theta(n)
        assert spec.theta == (1 - 2 * n, 3 + 2 * n)
        assert conifold_index(spec) == n
    with pytest.raises(ValueError):
        conifold_theta(-1)


def test_chamber_spec_validation():
    with pytest.raises(ValueError):
        ChamberSpec(0, (), ())
    with pytest.raises(ValueError):
        ChamberSpec(2, (1, 2), (1, 3))  # rho entries must be signs
    with pytest.raises(ValueError):
        ChamberSpec(2, (1, -1), (2, 2))  # even images
    with pytest.raises(ValueError):
        ChamberSpec(2, (1, -1), (1, 5))  # 1 and 5 collide mod 4
    with pytest.raises(ValueError):
        ChamberSpec(2, (1, -1), (1, 7))  # sum is 8, not L^2 = 4


def test_theta_value_periodicity_and_inverse():
    rng = random.Random(271)
    for L in (1, 2, 3, 4):
        for _ in range(20):
            spec = random_valid_chamber(rng, L)
            x = 2 * rng.randint(-9, 9) + 1
            assert theta_value(spec, x + 2 * L) == theta_value(spec, x) + 2 * L
            assert theta_inverse(spec, theta_value(spec, x)) == x
            assert theta_value(spec, theta_inverse(spec, x)) == x
    with pytest.raises(ValueError):
        theta_inverse(c3_chamber(), 2)


def test_sigma_extends_rho_periodically():
    spec = conifold_theta(0)
    assert sigma(spec, 1) == 1
    assert sigma(spec, 3) == -1
    assert sigma(spec, 5) == 1
    assert sigma(spec, -1) == -1
    with pytest.raises(ValueError):
        sigma(spec, 4)


def table_rules(spec, degree):
    """{t: slice rule} over the package's potential step table."""
    return {t: rule for t, rule, _ in potential_steps(spec, degree)}


def test_c3_slice_rules():
    rules = table_rules(c3_chamber(), 6)
    assert rules[-1].direction == "ascending"
    assert rules[0].direction == "descending"
    for i in range(-5, 5):
        assert rules[i].relation == "plus"


def test_conifold_theta0_slice_rules():
    rules = table_rules(conifold_theta(0), 6)
    # theta is the identity: ascending strictly left of 0, descending after,
    # relation at step i given by the rho sign at residue i mod 2
    for i in range(-6, 6):
        r = rules[i]
        assert r.direction == ("ascending" if i < 0 else "descending")
        assert r.relation == ("plus" if i % 2 == 0 else "minus")


def test_conifold_theta1_has_two_peaks():
    # theta_1 swaps 1/2 and 3/2 across the period, splitting the turn: the
    # steps turn from ascending to descending at slices -1 and 1
    rules = table_rules(conifold_theta(1), 8)
    directions = [rules[i].direction == "ascending" for i in range(-6, 6)]
    assert directions == [True] * 5 + [False, True] + [False] * 5


def test_slice_rule_flipped():
    r = table_rules(c3_chamber(), 1)[0]
    assert r.flipped().relation == "minus"
    assert r.flipped().direction == r.direction


def test_chamber_weight_product_is_the_full_variable_set():
    # the weights q_i^theta always multiply to q_0 q_1 ... q_{L-1}
    rng = random.Random(628)
    cases = [c3_chamber()] + [conifold_theta(n) for n in range(6)]
    for L in (1, 2, 3, 4):
        cases.extend(random_valid_chamber(rng, L) for _ in range(15))
    for spec in cases:
        total = [0] * spec.L
        for w in chamber_weights(spec):
            total = [a + b for a, b in zip(total, w.exponents)]
        assert total == [1] * spec.L, spec


def test_chamber_weight_exponents_for_known_chambers():
    assert chamber_weight(c3_chamber(), 0).exponents == (1,)
    w0 = chamber_weights(conifold_theta(0))
    assert [w.exponents for w in w0] == [(1, 0), (0, 1)]
    w1 = chamber_weights(conifold_theta(1))
    # theta_1 trades a genuine weight for a Laurent one plus a heavier partner
    assert sorted(w.exponents for w in w1) == [(-1, 0), (2, 1)]
    assert not genuine_weights(w1)
    assert genuine_weights(w0)


def test_chamber_weight_counts_the_q_between_the_preimages():
    # slice i weighs the q_j strictly between theta^{-1}(i - 1/2) and
    # theta^{-1}(i + 1/2), inverted when those are out of order
    for spec in scan_chambers():
        for i in range(spec.L):
            lo, hi = theta_preimage(spec, 2 * i - 1), theta_preimage(spec, 2 * i + 1)
            sign = 1 if lo < hi else -1
            exps = [0] * spec.L
            for j in range((min(lo, hi) + 1) // 2, (max(lo, hi) - 1) // 2 + 1):
                exps[j % spec.L] += sign
            assert chamber_weight(spec, i).exponents == tuple(exps), (spec, i)


def test_chamber_weight_index_validation():
    with pytest.raises(ValueError):
        chamber_weight(c3_chamber(), 1)
    with pytest.raises(ValueError):
        chamber_weight(conifold_theta(0), -1)


def test_conifold_index_rejects_lookalikes():
    assert conifold_index(c3_chamber()) is None
    assert conifold_index(ChamberSpec(2, (1, 1), (1, 3))) is None
    assert conifold_index(ChamberSpec(2, (1, -1), (5, -1))) is None
    assert conifold_index(ChamberSpec(2, (-1, 1), (1, 3))) is None


def scan_chambers():
    """c3 and the chambers of L = 2, 3, 4, 5 with |k_i| <= 3, 2, 1, 1."""
    for L, shift in ((1, 0), (2, 3), (3, 2), (4, 1), (5, 1)):
        for data in shifted_chamber_data(L, shift):
            yield ChamberSpec(*data)


def prefix_runs(spec, radius):
    """{t: (slice rule of step t, Pi(t))} for -radius <= t < radius, with
    Pi(t) the chamber_weights of slices -radius..t summed up."""
    weights = [w.exponents for w in chamber_weights(spec)]
    run = (0,) * spec.L
    out = {}
    for t in range(-radius, radius):
        run = tuple(map(add, run, weights[t % spec.L]))
        out[t] = (slice_rule(spec, t), run)
    return out


def test_rise_drop_pairs_cost_a_genuine_monomial():
    # Pi(d) - Pi(a) >= 0 componentwise, of degree >= 1, for every ascending
    # step a and descending step d; a pair further than a period from the
    # peaks only adds whole periods (1, ..., 1), so this window covers them
    chambers = pairs = 0
    for spec in scan_chambers():
        chambers += 1
        runs = prefix_runs(spec, max(map(abs, peak_slices(spec))) + spec.L + 1)
        ups = [pi for rule, pi in runs.values() if rule.direction == "ascending"]
        downs = [pi for rule, pi in runs.values() if rule.direction == "descending"]
        for a in ups:
            for d in downs:
                cost = tuple(map(sub, d, a))
                assert min(cost) >= 0 and sum(cost) >= 1, (spec, a, d)
                pairs += 1
    assert chambers == 598 and pairs > 20_000


def table_by_definition(spec, degree):
    """potential_steps from its definition: c the componentwise largest Pi
    over the ascending steps, e_t = c - Pi(t) on an ascending step and
    Pi(t) - c on a descending one, at every step with deg e_t <= degree;
    each rule is an oracles.Rule, a (relation, direction) pair."""
    runs = prefix_runs(spec, max(map(abs, spec.theta)) + (degree + 2) * spec.L)
    ascents = [pi for rule, pi in runs.values() if rule.direction == "ascending"]
    c = [max(column) for column in zip(*ascents)]
    table = [
        (t, rule, tuple(map(sub, c, pi) if rule.direction == "ascending" else map(sub, pi, c)))
        for t, (rule, pi) in runs.items()
    ]
    kept = [i for i, (_, _, e) in enumerate(table) if sum(e) <= degree]
    assert 0 < kept[0] and kept[-1] < len(table) - 1  # both ends inside the scan
    return [table[i] for i in kept]


def test_potential_steps_equal_the_runs_from_chamber_weights():
    for spec in scan_chambers():
        for degree in (0, 2, 5):
            table = [(t, (r.relation, r.direction), e) for t, r, e in potential_steps(spec, degree)]
            assert table == table_by_definition(spec, degree), (spec, degree)


def test_potential_steps_are_the_steps_priced_within_the_degree():
    for spec in scan_chambers():
        for degree in range(6):
            table = potential_steps(spec, degree)
            assert len(table) == 2 * degree + 1, (spec, degree)
            assert all(s[0] < u[0] for s, u in zip(table, table[1:])), (spec, degree)
            assert all(sum(e) <= degree for _, _, e in table), (spec, degree)


def test_row_bound_values():
    for d in range(13):
        # c3 as it is has only "plus" steps; flipped, r rows need r^2 boxes
        c3_table = potential_steps(c3_chamber(), d)
        assert row_bound(c3_table, d) == (d, isqrt(d))
        assert row_bound(chambers._flipped(c3_table), d) == (isqrt(d), d)
        assert row_bound(potential_steps(conifold_theta(0), d), d)[0] == (d + 1) // 2
    assert row_bound(potential_steps(conifold_theta(1), 16), 16) == (8, 8)
    for spec in scan_chambers():
        assert row_bound(potential_steps(spec, 0), 0) == (0, 0), spec


def bound_cases():
    """(chamber, degree): c3 at degree 0-12, theta_0..theta_3 at 0-10, and
    the L = 2 |shift| <= 3 scan at degree 6, L = 3 <= 2 at 5, L = 4 <= 1 at 4."""
    cases = [(c3_chamber(), d) for d in range(13)]
    cases += [(conifold_theta(n), d) for n in range(4) for d in range(11)]
    for L, shift, degree in ((2, 3, 6), (3, 2, 5), (4, 1, 4)):
        cases += [(ChamberSpec(*data), degree) for data in shifted_chamber_data(L, shift)]
    return cases


def test_row_bound_is_the_least_sufficient_row_count():
    # in both orientations: the sweep held to R rows per slice (R columns,
    # flipped) gives Z, and one row fewer does not
    cases = bound_cases()
    assert len(cases) == 301
    for spec, d in cases:
        z = enumerate_z(spec, d)
        table = potential_steps(spec, d)
        bounds = row_bound(table, d)
        assert row_bound(chambers._flipped(table), d) == bounds[::-1], (spec, d)
        for flip, bound in zip((False, True), bounds):
            oriented = chambers._flipped(table) if flip else table
            assert enumeration._sweep(spec.L, d, oriented, bound) == z, (spec, d)
            if bound:
                short = enumeration._sweep(spec.L, d, oriented, bound - 1)
                assert short != z, (spec, d, flip)


def test_row_bound_holds_every_configuration():
    # the sweep held to R rows per slice loses nothing; R = 0 at degree 0
    rng = random.Random(1597)
    specs = [c3_chamber()] + [conifold_theta(n) for n in range(5)]
    specs += rng.sample(list(scan_chambers()), 40)
    for spec in specs:
        for d in (0, 3, 5):
            bound = row_bound(potential_steps(spec, d), d)[0]
            assert enumerate_z_rows(spec, d, bound) == enumerate_z(spec, d), (spec, d)


def test_one_step_table_per_engine_run():
    for name in ("toeplitz", "lgv"):
        chambers._step_table.cache_clear()
        engines._lgv_route.cache_clear()
        matrixmodel._split_steps.cache_clear()
        engine_series(name, conifold_theta(2), 6)
        assert chambers._step_table.cache_info().misses == 1, name


def test_potential_steps_hands_out_a_tuple():
    # the memoized table is shared, so it must be immutable
    assert isinstance(potential_steps(conifold_theta(1), 4), tuple)
