"""Direct enumeration of partition evolutions across chambers."""

import itertools
import random

import pytest

from crystalmelt import (
    ChamberSpec,
    TruncatedSeries,
    c3_chamber,
    chamber_product,
    chamber_weights,
    conifold_product,
    conifold_theta,
    enumerate_z,
    enumerate_z_rows,
    enumerate_z_transposed,
    lgv_det,
    macmahon,
    walker_graph,
)
from crystalmelt import enumeration, interlace_minus, interlace_plus
from crystalmelt.chambers import potential_steps
from crystalmelt.engines import ENGINES, engine_series
from crystalmelt.enumeration import _NEVER
from oracles import all_partitions_up_to, contiguous_steps, genuine_weights, plane_partition_counts


def test_c3_counts_plane_partitions():
    got = enumerate_z(c3_chamber(), 8)
    expected = plane_partition_counts(8)
    for n in range(9):
        assert got.coefficient((n,)) == expected[n], n


def test_degree_zero_is_one_everywhere():
    for spec in (c3_chamber(), conifold_theta(0), conifold_theta(2)):
        z = enumerate_z(spec, 0)
        assert z == TruncatedSeries.one(spec.L, 0)
    # the sweep window has no slice at degree 0 and the row bound is 0 (one
    # walker, a Toeplitz section of size 0); every route, Laurent chambers too
    laurent = ChamberSpec(3, (1, 1, 1), (3, 1, 5))
    for spec in (c3_chamber(), conifold_theta(0), conifold_theta(2), laurent):
        for name in ENGINES:
            assert engine_series(name, spec, 0)[0] == TruncatedSeries.one(spec.L, 0), name


def test_degree_validation():
    with pytest.raises(ValueError):
        enumerate_z(c3_chamber(), -1)


def test_conifold_enumeration_matches_product_small():
    for n in (0, 1):
        assert enumerate_z(conifold_theta(n), 6) == conifold_product(n, 6)


def test_shrinking_successors_are_every_interlacing_partition_in_order():
    # the tables build successors block by block; the reference filters every
    # partition no larger than mu through the interlacing predicates
    pool = all_partitions_up_to(9)
    for mu in pool:
        smaller = sorted(nu for nu in pool if sum(nu) <= sum(mu))
        assert enumeration._succ_shrink_plus(mu) == [
            nu for nu in smaller if interlace_plus(mu, nu)
        ], mu
        assert enumeration._succ_shrink_minus(mu) == [
            nu for nu in smaller if interlace_minus(mu, nu)
        ], mu


def test_growing_successors_are_every_interlacing_partition_in_order():
    # the tables build successors block by block and range by range; the
    # reference filters every partition within the cap through the
    # interlacing predicates
    top = 9
    pool = all_partitions_up_to(top)
    for mu in pool:
        for cap in range(max(sum(mu) - 1, 0), top + 1):
            within = sorted(lam for lam in pool if sum(lam) <= cap)
            assert enumeration._succ_grow_plus(mu, cap) == [
                lam for lam in within if interlace_plus(lam, mu)
            ], (mu, cap)
            assert enumeration._succ_grow_minus(mu, cap) == [
                lam for lam in within if interlace_minus(lam, mu)
            ], (mu, cap)


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


def _contiguous(monkeypatch, extra):
    """Hand the sweep the contiguous step table widened by extra steps on
    each side (oracles.contiguous_steps) in place of the steps priced
    within the degree."""
    monkeypatch.setattr(
        enumeration, "potential_steps", lambda spec, degree: contiguous_steps(spec, degree, extra)
    )


def test_widening_window_changes_nothing(monkeypatch):
    rng = random.Random(12021)
    cases = (
        (c3_chamber(), 5),
        (conifold_theta(0), 4),
        (conifold_theta(1), 4),
        (conifold_theta(2), 4),
        (conifold_theta(2), 5),
        (conifold_theta(3), 4),
        (conifold_theta(3), 5),
        # theta_n kept configurations reach the table's ends at degree 3
        (conifold_theta(2), 3),
        (conifold_theta(3), 3),
        # Laurent chambers outside theta_n
        (ChamberSpec(3, (1, 1, 1), (3, 1, 5)), 4),
        (ChamberSpec(2, (1, -1), (5, -1)), 3),
    )
    for spec, d in cases:
        extra = rng.randint(1, 3) * spec.L
        for engine in (enumerate_z, enumerate_z_transposed):
            expected = engine(spec, d)
            with monkeypatch.context() as m:
                _contiguous(m, extra)
                assert engine(spec, d) == expected, (spec, d, engine)


def test_window_longer_than_the_recursion_limit(monkeypatch):
    # the lookahead walks its chains of least successors without recursing
    _contiguous(monkeypatch, 3000)
    assert enumerate_z(c3_chamber(), 3) == macmahon(3)


def test_over_eager_lookahead_is_caught(monkeypatch):
    # one unit more than the true bound drops configurations whose chain
    # attains it at degree D: c3 at every degree, theta_2 and an L = 3
    # Laurent chamber at degree 3
    true_bound = enumeration._least_ahead
    monkeypatch.setattr(enumeration, "_least_ahead", lambda *args: true_bound(*args) + 1)
    assert enumerate_z(c3_chamber(), 6) != macmahon(6)
    assert enumerate_z(conifold_theta(2), 3) != conifold_product(2, 3)
    spec = ChamberSpec(3, (1, 1, 1), (3, 1, 5))
    assert enumerate_z(spec, 3) != chamber_product(spec, 3)


def _no_lookahead(monkeypatch):
    """Switch off the sweep's only prune beyond the degree already paid: a
    zero lookahead, a valid but useless lower bound."""
    monkeypatch.setattr(enumeration, "_least_ahead", lambda *args: 0)


def _all_routes(monkeypatch, spec, d):
    routes = [enumerate_z(spec, d), enumerate_z_transposed(spec, d), enumerate_z_rows(spec, d, 2)]
    with monkeypatch.context() as m:
        _contiguous(m, spec.L)
        routes += [enumerate_z(spec, d), enumerate_z_transposed(spec, d)]
    return routes


def test_degree_prune_changes_nothing(monkeypatch):
    cases = [(conifold_theta(n), d) for n in (1, 2, 3, 4) for d in (3, 4, 5, 6)]
    pruned = [_all_routes(monkeypatch, spec, d) for spec, d in cases]
    _no_lookahead(monkeypatch)
    for (spec, d), expected in zip(cases, pruned):
        assert _all_routes(monkeypatch, spec, d) == expected, (spec, d)


def _one_period_thetas(L):
    """theta images (2 pi(r) + 1) + 2L k_r: a permutation pi of the residues
    and shifts k_r in {-1, 0, 1} summing to 0."""
    for perm in itertools.permutations(range(L)):
        for shift in itertools.product((-1, 0, 1), repeat=L):
            if sum(shift) == 0:
                yield tuple(2 * p + 1 + 2 * L * k for p, k in zip(perm, shift))


def test_degree_prune_changes_nothing_on_other_laurent_chambers(monkeypatch):
    laurent = [
        spec
        for rho in ((1, 1, -1), (1, -1, 1), (1, 1, 1))
        for theta in _one_period_thetas(3)
        for spec in (ChamberSpec(3, rho, theta),)
        if not genuine_weights(chamber_weights(spec))
    ]
    specs = random.Random(7331).sample(laurent, 8)
    pruned = [enumerate_z(spec, 4) for spec in specs]
    _no_lookahead(monkeypatch)
    for spec, expected in zip(specs, pruned):
        assert enumerate_z(spec, 4) == expected, spec


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


def _potential_chambers():
    """theta_0..theta_6, c3 and the identity chambers with L = 3, 4."""
    specs = [conifold_theta(n) for n in range(7)] + [c3_chamber()]
    for L in (3, 4):
        for rho in itertools.product((1, -1), repeat=L):
            specs.append(ChamberSpec(L, rho, tuple(range(1, 2 * L, 2))))
    return specs


def _window_steps(spec, d):
    """The potential step table's rules (into each run, then out of it),
    each run's monomial (the weights of its slices multiplied up) and each
    step's potential cost vector."""
    table = potential_steps(spec, d)
    weights = [w.exponents for w in chamber_weights(spec)]
    runs = [
        [sum(weights[s % spec.L][v] for s in range(t + 1, u + 1)) for v in range(spec.L)]
        for (t, _, _), (u, _, _) in zip(table, table[1:])
    ]
    return [rule for _, rule, _ in table], runs, [e for _, _, e in table]


def _fits(rule, mu, nu):
    """Whether the step mu -> nu obeys the slice rule."""
    rel = interlace_plus if rule.relation == "plus" else interlace_minus
    return rel(nu, mu) if rule.direction == "ascending" else rel(mu, nu)


def _brute_configurations(rules, max_boxes):
    """Slice sizes of every configuration of the window with at most
    max_boxes boxes in all, by a search over every partition of the pool."""
    pool = all_partitions_up_to(max_boxes)

    def walk(i, mu, sizes):
        if i == len(rules) - 1:
            if _fits(rules[i], mu, ()):
                yield sizes
            return
        for nu in pool:
            if sum(sizes) + sum(nu) <= max_boxes and _fits(rules[i], mu, nu):
                yield from walk(i + 1, nu, sizes + [sum(nu)])

    return walk(0, (), [])


def test_potential_table_prices_every_configuration_at_its_degree():
    # componentwise: each configuration pays its monomial, not just its
    # degree; the last two are Laurent chambers outside theta_n
    laurent = [ChamberSpec(3, (1, 1, 1), (3, 1, 5)), ChamberSpec(2, (1, 1), (5, -1))]
    for spec in _potential_chambers() + laurent:
        for d in (1, 3):
            rules, weights, costs = _window_steps(spec, d)
            pot = [sum(e) for e in costs]
            cheapest = enumeration._cheapest_drops(rules, pot)
            assert min(map(min, costs)) >= 0 and min(cheapest) >= 0, (spec, d)
            seen = 0
            for sizes in _brute_configurations(rules, 4):
                padded = [0] + sizes + [0]
                moves = [abs(b - a) for a, b in zip(padded, padded[1:])]
                paid = [sum(e[i] * k for e, k in zip(costs, moves)) for i in range(spec.L)]
                monomial = [sum(w[i] * a for w, a in zip(weights, sizes)) for i in range(spec.L)]
                assert paid == monomial, (spec, sizes)
                seen += any(sizes)
            assert seen >= 3, (spec, d)


def test_potential_prune_changes_nothing(monkeypatch):
    # a zero lookahead leaves the sweep only the potential already paid and
    # the least drop cost ahead; the window still comes from the true table
    theta = [(conifold_theta(n), d) for n in range(7) for d in (3, 5)]
    identity = [(spec, 5) for spec in _potential_chambers()[8:]]

    def routes(spec, d, rows):
        z = [enumerate_z(spec, d), enumerate_z_transposed(spec, d)]
        return z + [enumerate_z_rows(spec, d, r) for r in rows]

    cases = [(spec, d, (1, 2, 3)) for spec, d in theta] + [
        (spec, d, ()) for spec, d in identity
    ]
    # on this Laurent chamber at d = 2, partitions that cannot close reach
    # the last run unpruned, and only the closing test drops them
    cases.append((ChamberSpec(2, (1, -1), (5, -1)), 2, (1, 2)))
    pruned = [routes(*case) for case in cases]
    _no_lookahead(monkeypatch)
    for case, expected in zip(cases, pruned):
        assert routes(*case) == expected, case


@pytest.mark.parametrize("which", [0, 1])
def test_over_eager_potential_bound_is_caught(monkeypatch, which):
    # one unit more on every step's cost (and so on the least drop costs
    # ahead), or on the least drop costs ahead alone, drops configurations of
    # degree <= D
    table, cheapest = enumeration.potential_steps, enumeration._cheapest_drops

    def eager_table(spec, degree):
        return [(t, rule, (e[0] + 1,) + e[1:]) for t, rule, e in table(spec, degree)]

    def eager_cheapest(rules, pot):
        return [c + 1 for c in cheapest(rules, pot)]

    if which == 0:
        monkeypatch.setattr(enumeration, "potential_steps", eager_table)
    else:
        monkeypatch.setattr(enumeration, "_cheapest_drops", eager_cheapest)
    for n in (1, 2, 3):
        assert enumerate_z(conifold_theta(n), 6) != conifold_product(n, 6), n


def test_lookahead_calls_are_pinned(monkeypatch):
    # the sweep asks the lookahead once per partition the frontier holds at
    # an ascending step and once per distinct successor of each step, so the
    # count follows the partitions the bound keeps; half the bound, weaker
    # but still valid, keeps more of them and gives the same series
    true_bound = enumeration._least_ahead
    cases = [(conifold_theta(1), 12), (conifold_theta(2), 10), (conifold_theta(3), 8)]
    cases.append((c3_chamber(), 22))

    def calls(bound):
        counts, series = [], []
        for spec, d in cases:
            asked = []

            def counted(*args):
                asked.append(args)
                return bound(*args)

            with monkeypatch.context() as m:
                m.setattr(enumeration, "_least_ahead", counted)
                series.append(enumerate_z(spec, d))
            counts.append(len(asked))
        return counts, series

    def halved(*args):
        ahead = true_bound(*args)
        return ahead if ahead == _NEVER else ahead // 2

    pinned, expected = calls(true_bound)
    assert pinned == [184, 134, 102, 797]
    weaker, series = calls(halved)
    assert series == expected
    assert all(w > p for w, p in zip(weaker, pinned)), (weaker, pinned)


def test_laurent_chamber_outside_theta_n_enumerates():
    spec = ChamberSpec(2, (1, -1), (5, -1))
    assert enumerate_z(spec, 3) == chamber_product(spec, 3)


def test_lookahead_is_a_lower_bound_attained_on_c3():
    # every continuation of nu through partitions of the pool pays at least
    # the lookahead (least[nu], by a backward pass over the pool); on c3 the
    # drop costs rise along the window, so the greedy chain itself attains it
    pool = all_partitions_up_to(5)
    chambers = [
        c3_chamber(),
        conifold_theta(0),
        conifold_theta(2),
        ChamberSpec(3, (1, 1, 1), (3, 1, 5)),
        ChamberSpec(2, (1, 1), (5, -1)),
    ]
    for spec in chambers:
        table = potential_steps(spec, 3)
        rules = [rule for _, rule, _ in table]
        pot = [sum(e) for _, _, e in table]
        cheapest = enumeration._cheapest_drops(rules, pot)
        steps = [(enumeration._least_step(r), c) for r, c in zip(rules[1:], cheapest[1:])]
        memo = {}
        least = {nu: pot[-1] * sum(nu) if _fits(rules[-1], nu, ()) else _NEVER for nu in pool}
        for i in range(len(rules) - 2, -1, -1):
            for nu in pool:
                ahead = enumeration._least_ahead(steps, i, nu, memo)
                assert ahead <= least[nu], (spec, i, nu)
                if spec == c3_chamber():
                    assert ahead == least[nu], (i, nu)
            least = {
                mu: min(
                    (pot[i] * abs(sum(nu) - sum(mu)) + least[nu] for nu in pool if _fits(rules[i], mu, nu)),
                    default=_NEVER,
                )
                for mu in pool
            }


def test_lookahead_charges_the_cheapest_drop_ahead(monkeypatch):
    # charging each box the chain drops at its own step's cost overestimates a
    # continuation that drops it later at a cheaper step
    cheapest = enumeration._cheapest_drops

    def own_cost(rules, pot):
        c = cheapest(rules, pot)
        return [e if r.direction == "descending" else x for r, e, x in zip(rules, pot, c)] + c[-1:]

    monkeypatch.setattr(enumeration, "_cheapest_drops", own_cost)
    spec = ChamberSpec(2, (1, 1), (5, -1))
    assert enumerate_z(spec, 6) != chamber_product(spec, 6)


def test_windows_ending_on_an_ascending_step_agree_on_every_route():
    # at degree 1 the tables of theta_1..theta_3 end on an ascending step, so
    # no drop follows it and nothing may grow there
    for n in (1, 2, 3):
        spec = conifold_theta(n)
        assert potential_steps(spec, 1)[-1][1].direction == "ascending", n
        for name in ENGINES:
            assert engine_series(name, spec, 1)[0] == conifold_product(n, 1), (n, name)


def _first_slice_only(monkeypatch, module):
    """Make module price every run of the step table as its first slice alone."""
    counts = module.residue_counts
    monkeypatch.setattr(module, "residue_counts", lambda lo, hi, L: counts(lo, min(hi, lo + 1), L))


RUN_CHAMBERS = (
    conifold_theta(1),
    conifold_theta(2),
    conifold_theta(3),
    ChamberSpec(3, (1, 1, 1), (3, 1, 5)),
)


def test_step_cost_moved_to_another_variable_is_caught(monkeypatch):
    # the sweep prices each box by its step's cost vector e_t; moving one
    # unit of every e_t from q_0 to q_1 keeps every degree, and so every
    # prune, but puts configurations on the wrong monomials
    table = enumeration.potential_steps

    def moved(spec, degree):
        return [
            (t, rule, (e[0] - 1, e[1] + 1) + e[2:] if e[0] else e)
            for t, rule, e in table(spec, degree)
        ]

    monkeypatch.setattr(enumeration, "potential_steps", moved)
    for spec in RUN_CHAMBERS:
        assert enumerate_z(spec, 4) != chamber_product(spec, 4), spec
