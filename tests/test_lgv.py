"""Non-intersecting path determinants and the walker graphs."""

import itertools
import random
from math import isqrt

import pytest

from crystalmelt import (
    ChamberSpec,
    InvalidGraphError,
    OracleTooLargeError,
    TruncatedSeries,
    c3_chamber,
    conifold_theta,
    det_division_free,
    enumerate_z,
    enumerate_z_rows,
    lgv_det,
    macmahon,
    nonintersecting_bruteforce,
    path_matrix,
    profile_bijection_check,
    random_layered_dag,
    walker_graph,
)
from crystalmelt import WeightedDag, chamber_product, chamber_weights, chambers, engines
from crystalmelt import enumeration, lgv
from crystalmelt.chambers import potential_steps, row_bound
from crystalmelt.engines import engine_series
from crystalmelt.lgv import _paths_between
from oracles import genuine_weights, peak_slices, shifted_chamber_data, slice_rule
from test_enumeration import RUN_CHAMBERS, _first_slice_only
from test_matrixmodel import clear_route_caches, scan_sample


def w_monomial(i, cutoff=4):
    return TruncatedSeries.monomial(6, cutoff, tuple(1 if j == i else 0 for j in range(6)))


def junction_graph():
    """Two walkers with one shared junction vertex and six labeled weights."""
    w = [w_monomial(i) for i in range(6)]
    a1, a2, mid, low, b1, b2 = (0, 1), (0, 0), (1, 1), (1, 0), (2, 1), (2, 0)
    edges = [
        (a1, mid, w[0]),
        (a2, mid, w[1]),
        (a2, low, w[2]),
        (mid, b1, w[3]),
        (low, b2, w[4]),
        (mid, b2, w[5]),
    ]
    return WeightedDag(6, 4, edges, (a1, a2), (b1, b2)), w


def test_junction_path_matrix():
    g, w = junction_graph()
    m = path_matrix(g)
    assert m[0][0] == w[0] * w[3]
    assert m[0][1] == w[0] * w[5]
    assert m[1][0] == w[1] * w[3]
    assert m[1][1] == w[1] * w[5] + w[2] * w[4]


def test_junction_determinant_and_bruteforce():
    g, w = junction_graph()
    expected = w[0] * w[3] * w[2] * w[4]
    assert lgv_det(g) == expected
    assert nonintersecting_bruteforce(g) == expected


def test_single_vertex_graph():
    v = (0, 0)
    g = WeightedDag(1, 2, [], (v,), (v,))
    m = path_matrix(g)
    assert m[0][0] == TruncatedSeries.one(1, 2)
    assert lgv_det(g) == TruncatedSeries.one(1, 2)


def test_disconnected_endpoints_give_zero_entries():
    one = TruncatedSeries.one(1, 2)
    g = WeightedDag(1, 2, [((0, 0), (1, 0), one)], ((0, 0), (0, 1)), ((1, 0), (1, 1)))
    m = path_matrix(g)
    assert m[1][0].is_zero() and m[1][1].is_zero()
    assert lgv_det(g).is_zero()


def test_single_walker_bruteforce_equals_matrix_entry():
    rng = random.Random(52)
    for _ in range(20):
        g = random_layered_dag(rng)
        if len(g.sources) != 1:
            continue
        assert nonintersecting_bruteforce(g) == path_matrix(g)[0][0]


def test_fully_intersecting_graph_sums_to_zero():
    # both walkers must pass through the same middle vertex
    one = TruncatedSeries.one(1, 3)
    mid = (1, 0)
    edges = [
        ((0, 0), mid, one),
        ((0, 1), mid, one),
        (mid, (2, 0), one),
        (mid, (2, 1), one),
    ]
    g = WeightedDag(1, 3, edges, ((0, 0), (0, 1)), ((2, 0), (2, 1)))
    assert nonintersecting_bruteforce(g).is_zero()
    assert lgv_det(g).is_zero()


def test_determinant_matches_bruteforce_on_random_dags():
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        g = random_layered_dag(rng)
        assert lgv_det(g) == nonintersecting_bruteforce(g)
        checked += 1


def signed_weight(rng, num_vars, cutoff):
    """Edge weight: exactly 1, the constant -1, or a series of one to four
    terms with coefficients of either sign, a constant term included or not."""
    kind = rng.random()
    if kind < 0.25:
        return TruncatedSeries.one(num_vars, cutoff)
    if kind < 0.4:
        return -TruncatedSeries.one(num_vars, cutoff)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(num_vars))
        terms[exps] = rng.choice((-3, -2, -1, 1, 2, 3))
    return TruncatedSeries(num_vars, cutoff, terms)


def signed_layered_dag(rng):
    """Layered DAG as in random_layered_dag (slopes 0 and +1, so vertex-disjoint
    families keep their order) with signed multi-term weights, and sometimes a
    pair of parallel edges of weights w and -w whose paths cancel."""
    num_vars = rng.randint(1, 2)
    cutoff = rng.randint(2, 6)
    layers = rng.randint(2, 4)
    rows = 4
    edges = []
    for layer in range(layers):
        for r in range(rows):
            for dr in (0, 1):
                if r + dr >= rows or rng.random() < 0.3:
                    continue
                w = signed_weight(rng, num_vars, cutoff)
                edges.append(((layer, r), (layer + 1, r + dr), w))
                if rng.random() < 0.1:
                    edges.append(((layer, r), (layer + 1, r + dr), -w))
    n = rng.randint(1, 3)
    sources = tuple((0, r) for r in sorted(rng.sample(range(rows), n)))
    sinks = tuple((layers, r) for r in sorted(rng.sample(range(rows), n)))
    return WeightedDag(num_vars, cutoff, edges, sources, sinks)


def test_path_matrix_on_signed_multiterm_weights():
    rng = random.Random(8128)
    for _ in range(60):
        g = signed_layered_dag(rng)
        m = path_matrix(g)
        zero = TruncatedSeries.zero(g.num_vars, g.cutoff)
        for i, a in enumerate(g.sources):
            for j, b in enumerate(g.sinks):
                naive = sum((w for _, w in _paths_between(g, a, b)), zero)
                entry = m[i][j]
                assert entry == naive
                assert entry == TruncatedSeries(g.num_vars, g.cutoff, entry.terms)
        assert lgv_det(g) == nonintersecting_bruteforce(g)


def test_graph_validation():
    one = TruncatedSeries.one(1, 2)
    with pytest.raises(InvalidGraphError):
        WeightedDag(1, 2, [], ((0, 0), (0, 0)), ((1, 0), (1, 1)))
    with pytest.raises(InvalidGraphError):
        WeightedDag(1, 2, [], ((0, 0),), ((1, 0), (1, 1)))
    g = WeightedDag(
        1,
        2,
        [((0, 0), (1, 0), one), ((1, 0), (0, 0), one)],
        ((0, 0),),
        ((1, 0),),
    )
    with pytest.raises(InvalidGraphError):
        path_matrix(g)
    with pytest.raises(InvalidGraphError):
        WeightedDag(1, 2, [((0, 0), (1, 0), TruncatedSeries.one(2, 2))], ((0, 0),), ((1, 0),))


def test_each_graph_is_sorted_once(monkeypatch):
    # the determinant and the brute-force guard read one topological order
    sorts = []
    heapify = lgv.heapify
    monkeypatch.setattr(lgv, "heapify", lambda ready: sorts.append(1) or heapify(ready))
    for seed in range(5):
        g = random_layered_dag(random.Random(seed))
        assert lgv_det(g) == nonintersecting_bruteforce(g), seed
        assert len(sorts) == seed + 1, seed
    # a cyclic graph keeps no order, so it fails on every call
    one = TruncatedSeries.one(1, 2)
    cyclic = WeightedDag(1, 2, [((0, 0), (1, 0), one), ((1, 0), (0, 0), one)], ((0, 0),), ((1, 0),))
    for _ in range(2):
        with pytest.raises(InvalidGraphError):
            path_matrix(cyclic)


def test_bruteforce_guard():
    # stacked complete bipartite layers: path counts explode
    one = TruncatedSeries.one(1, 2)
    edges = []
    depth = 8
    for layer in range(depth):
        for a in range(4):
            for b in range(4):
                edges.append(((layer, a), (layer + 1, b), one))
    sources = tuple((0, r) for r in range(3))
    sinks = tuple((depth, r) for r in range(3))
    g = WeightedDag(1, 2, edges, sources, sinks)
    with pytest.raises(OracleTooLargeError):
        nonintersecting_bruteforce(g)


def test_walker_graph_c3_reproduces_macmahon():
    for walkers in (3, 4):
        det = lgv_det(walker_graph(c3_chamber(), walkers, 3))
        assert det == macmahon(3), walkers


def test_walker_graph_conifold_reproduces_enumeration():
    target = enumerate_z(conifold_theta(0), 3)
    for walkers in (3, 4):
        det = lgv_det(walker_graph(conifold_theta(0), walkers, 3))
        assert det == target, walkers


def test_walker_graph_counts_row_restricted_evolutions():
    # N walkers see exactly the evolutions with at most N parts per slice
    for spec, d in ((c3_chamber(), 5), (conifold_theta(0), 4)):
        for walkers in (1, 2):
            det = lgv_det(walker_graph(spec, walkers, d))
            assert det == enumerate_z_rows(spec, d, walkers), (spec.L, walkers)


def test_walker_graph_counts_multi_peak_chambers():
    # theta_1 and theta_2 have two and three peaks and Laurent weights
    for n in (1, 2):
        spec = conifold_theta(n)
        assert len(peak_slices(spec)) == n + 1
        for walkers in (1, 2):
            det = lgv_det(walker_graph(spec, walkers, 4))
            assert det == enumerate_z_rows(spec, 4, walkers), (n, walkers)


def test_profile_bijection_small_battery():
    for spec in (c3_chamber(), conifold_theta(0)):
        for walkers in (1, 2, 3):
            for degree in (0, 1, 2, 3):
                assert profile_bijection_check(spec, walkers, degree), (
                    spec.L,
                    walkers,
                    degree,
                )


def test_profile_bijection_node_guard():
    with pytest.raises(OracleTooLargeError):
        profile_bijection_check(c3_chamber(), 3, 3, node_guard=10)


def test_profile_bijection_finds_the_peak_once(monkeypatch):
    # one potential step table per check, shared by the graph and the search
    calls = []
    table = lgv.potential_steps

    def counting(spec, degree):
        calls.append(spec)
        return table(spec, degree)

    monkeypatch.setattr(lgv, "potential_steps", counting)
    assert profile_bijection_check(conifold_theta(0), 2, 2)
    assert len(calls) == 1


def families_checked(monkeypatch):
    """For c3, theta_0 and theta_1, walkers 1-4 and degree 0-4: (case,
    families that reach the per-family verdict, families the row-restricted
    sweep counts)."""
    seen = []
    verdict = lgv._family_verdict

    def counting(*args):
        seen.append(args)
        return verdict(*args)

    monkeypatch.setattr(lgv, "_family_verdict", counting)
    out = []
    for spec in (c3_chamber(), conifold_theta(0), conifold_theta(1)):
        for walkers in (1, 2, 3, 4):
            for degree in range(5):
                seen.clear()
                assert profile_bijection_check(spec, walkers, degree)
                # every family is a monomial of coefficient 1 and degree <= degree
                total = sum(enumerate_z_rows(spec, degree, walkers).terms.values())
                out.append(((spec.theta, walkers, degree), len(seen), total))
    return out


def test_pruned_bijection_check_reaches_every_family(monkeypatch):
    for case, reached, total in families_checked(monkeypatch):
        assert reached == total, case


def test_over_eager_bijection_lookahead_is_caught(monkeypatch):
    # one degree more than the least degree to a sink, away from that sink,
    # cuts the families that spend the whole budget, which the completeness
    # count must notice; path_matrix takes every sink at once and is left alone
    least = lgv._least_to_sink

    def eager(g, order, sinks=None):
        exact = least(g, order, sinks)
        if sinks is None:
            return exact
        return {v: x + (v not in sinks) for v, x in exact.items()}

    monkeypatch.setattr(lgv, "_least_to_sink", eager)
    assert any(reached < total for _, reached, total in families_checked(monkeypatch))


def test_bijection_search_size_is_pinned():
    # node counts of the two-cut search this bound replaced; the sink bound
    # is never weaker, so it must fit in each
    for spec, walkers, degree, nodes in (
        (c3_chamber(), 3, 3, 47),
        (conifold_theta(0), 4, 4, 98),
        (c3_chamber(), 6, 6, 609),
    ):
        assert profile_bijection_check(spec, walkers, degree, node_guard=nodes)


def wide_steps(spec, degree):
    """The steps the walker graphs of a single-peak chamber spanned before
    the window was derived, -(D+2)L <= t < (D+2)L, each with the exponents of
    its rise or drop run even where that run's degree exceeds the cutoff."""
    (peak,) = peak_slices(spec)
    weights = [w.exponents for w in chamber_weights(spec)]
    L = spec.L

    def run(lo, hi):
        return tuple(sum(weights[u % L][i] for u in range(lo, hi + 1)) for i in range(L))

    steps = []
    for t in range(-(degree + 2) * L, (degree + 2) * L):
        rule = slice_rule(spec, t)
        ascending = rule.direction == "ascending"
        steps.append((t, rule, run(t + 1, peak - 1) if ascending else run(peak, t)))
    return steps


def without_zero_edges(num_vars, cutoff, edges, sources, sinks):
    """WeightedDag less the edges whose weight truncated to zero, as the
    graphs of the wide window left out the runs beyond the cutoff."""
    kept = [edge for edge in edges if edge[2].terms]
    return WeightedDag(num_vars, cutoff, kept, sources, sinks)


def window_cases():
    """(spec, walkers, degree) over c3 and theta_0 with 1-4 walkers, and the
    24 identity chambers with L = 3, 4 with 1-2 walkers, all at degree 0-4."""
    cases = [
        (spec, walkers, degree)
        for spec in (c3_chamber(), conifold_theta(0))
        for walkers in (1, 2, 3, 4)
        for degree in range(5)
    ]
    for L in (3, 4):
        for rho in itertools.product((1, -1), repeat=L):
            spec = ChamberSpec(L, rho, tuple(range(1, 2 * L, 2)))
            cases += [(spec, walkers, degree) for walkers in (1, 2) for degree in range(5)]
    return cases


def walker_outputs(monkeypatch, spec, walkers, degree):
    """The path matrix, its determinant, and every family that reaches the
    bijection verdict as (weight, the non-empty slices with their times)."""
    seen = []
    verdict = lgv._family_verdict

    def recording(steps, weights, profile, gadget_vertices, total_exp):
        # profile[i] is held across the slices from step i - 1 to step i
        ground = profile[0]
        slices = tuple(
            (s, h)
            for (t, _, _), (u, _, _), h in zip(steps, steps[1:], profile[1:])
            if h != ground
            for s in range(t + 1, u + 1)
        )
        seen.append((total_exp, slices))
        return verdict(steps, weights, profile, gadget_vertices, total_exp)

    with monkeypatch.context() as m:
        m.setattr(lgv, "_family_verdict", recording)
        assert profile_bijection_check(spec, walkers, degree)
    g = walker_graph(spec, walkers, degree)
    return path_matrix(g), lgv_det(g), sorted(seen)


def test_derived_walker_window_changes_no_path_sum(monkeypatch):
    for spec, walkers, degree in window_cases():
        derived = walker_outputs(monkeypatch, spec, walkers, degree)
        with monkeypatch.context() as m:
            m.setattr(lgv, "potential_steps", wide_steps)
            m.setattr(lgv, "WeightedDag", without_zero_edges)
            wide = walker_outputs(m, spec, walkers, degree)
        assert derived == wide, (spec, walkers, degree)


def test_zero_weight_edges_are_no_moves(monkeypatch):
    # the far steps of the wide table truncate their runs to zero-weight
    # edges; a walker that crossed one would rise for free
    monkeypatch.setattr(lgv, "potential_steps", wide_steps)
    for walkers, degree in ((2, 2), (1, 3), (3, 3)):
        assert profile_bijection_check(c3_chamber(), walkers, degree), (walkers, degree)


def test_walker_window_one_step_short_is_caught(monkeypatch):
    # a potential step table one step short at either end changes what the
    # walker graphs and the slice sweep return
    table = lgv.potential_steps
    for short in (lambda *args: table(*args)[1:], lambda *args: table(*args)[:-1]):
        walkers_changed = sweep_changed = False
        for spec in (c3_chamber(), conifold_theta(0), conifold_theta(1)):
            for degree in range(1, 5):
                derived = [path_matrix(walker_graph(spec, w, degree)) for w in (1, 2, 3)]
                swept = enumerate_z(spec, degree)
                with monkeypatch.context() as m:
                    m.setattr(lgv, "potential_steps", short)
                    m.setattr(enumeration, "potential_steps", short)
                    walkers_changed |= derived != [
                        path_matrix(walker_graph(spec, w, degree)) for w in (1, 2, 3)
                    ]
                    sweep_changed |= enumerate_z(spec, degree) != swept
        assert walkers_changed and sweep_changed


def test_run_charged_to_its_first_slice_only_fails_the_bijection(monkeypatch):
    _first_slice_only(monkeypatch, lgv)
    for spec in RUN_CHAMBERS:
        verdict = profile_bijection_check(spec, 2, 4)
        assert not verdict, spec
        assert verdict.reason == "family weight disagrees with the configuration weight", spec


def test_sink_lookahead_changes_no_path_sum(monkeypatch):
    # least forced to 0 everywhere is the plain cut at the cutoff
    for spec in (c3_chamber(), conifold_theta(0)):
        for walkers in (1, 2, 3):
            for degree in range(5):
                g = walker_graph(spec, walkers, degree)
                pruned = path_matrix(g)
                with monkeypatch.context() as m:
                    m.setattr(lgv, "_least_to_sink", lambda g, order: dict.fromkeys(order, 0))
                    assert path_matrix(g) == pruned, (spec.L, walkers, degree)


def test_over_eager_sink_lookahead_is_caught(monkeypatch):
    # one degree more than the least degree to a sink cuts the terms that
    # reach a sink at exactly the cutoff
    graphs = [walker_graph(spec, 3, 3) for spec in (c3_chamber(), conifold_theta(0))]
    exact = [path_matrix(g) for g in graphs]
    least = lgv._least_to_sink
    monkeypatch.setattr(
        lgv, "_least_to_sink", lambda g, order: {v: x + 1 for v, x in least(g, order).items()}
    )
    for g, matrix in zip(graphs, exact):
        assert path_matrix(g) != matrix, g.num_vars


def graph_matrix(spec, walkers, degree):
    return path_matrix(walker_graph(spec, walkers, degree))


def transfer_matrix(spec, walkers, degree):
    return lgv._walker_transfer(spec.L, walkers, degree, potential_steps(spec, degree))


def transfer_cases():
    """(spec, walkers, degree) over c3 and theta_0 at degree 0-8 with 1, 2,
    D and D + 1 walkers."""
    return [
        (spec, walkers, degree)
        for spec in (c3_chamber(), conifold_theta(0))
        for degree in range(9)
        for walkers in sorted({1, 2, max(degree, 1), max(degree, 1) + 1})
    ]


def test_walker_path_matrix_equals_the_graph_path_matrix():
    for spec, walkers, degree in transfer_cases():
        expected = graph_matrix(spec, walkers, degree)
        assert transfer_matrix(spec, walkers, degree) == expected, (spec.L, walkers, degree)


def test_walker_transfer_equals_the_graph_on_flipped_tables():
    # with every relation flipped c3's steps are all rails and theta_n's
    # swap kinds; the transfer must still equal the graph built over the
    # same table, and the route's own table and walker count give Z
    specs = [c3_chamber()] + [conifold_theta(n) for n in range(3)]
    specs.append(ChamberSpec(3, (1, 1, -1), (1, 3, 5)))
    for spec in specs:
        for degree in range(7):
            table = chambers._flipped(potential_steps(spec, degree))
            bound = max(row_bound(table, degree)[0], 1)
            for walkers in sorted({1, 2, bound, bound + 1}):
                got = lgv._walker_transfer(spec.L, walkers, degree, table)
                graph = lgv._walker_graph(spec.L, walkers, degree, table)
                assert got == path_matrix(graph), (spec, walkers, degree)
            walkers, steps = engines._lgv_route(spec, degree)
            det = det_division_free(lgv._walker_transfer(spec.L, walkers, degree, steps))
            assert det == enumerate_z(spec, degree), (spec, degree)
    # c3 is read flipped from degree 2 on, with floor(sqrt(D)) walkers
    for degree in range(2, 13):
        walkers, steps = engines._lgv_route(c3_chamber(), degree)
        assert walkers == isqrt(degree) and steps != potential_steps(c3_chamber(), degree)


def test_walker_path_matrix_on_single_peak_chambers():
    # the 28 genuine single-peak chambers of the L = 2-4, |shift| <= 2 scan,
    # theta_0..theta_6 and a seeded sample of the rest of that scan, multi-peak
    # and Laurent; each runs with one and D walkers and a seeded count between,
    # against the graph's path matrix, and its D-walker determinant against
    # the root-data product
    rng = random.Random(4181)
    scan = [ChamberSpec(*data) for L in (2, 3, 4) for data in shifted_chamber_data(L, 2)]
    single = [
        spec
        for spec in scan
        if len(peak_slices(spec)) == 1 and genuine_weights(chamber_weights(spec))
    ]
    assert len(single) == 28
    rest = [spec for spec in scan if spec not in single]
    specs = single + [conifold_theta(n) for n in range(7)] + rng.sample(rest, 24)
    for spec in specs:
        for degree in (3, 5):
            for walkers in (1, rng.randint(2, degree + 1), degree):
                expected = graph_matrix(spec, walkers, degree)
                got = transfer_matrix(spec, walkers, degree)
                assert got == expected, (spec, walkers, degree)
            assert det_division_free(got) == chamber_product(spec, degree), (spec, degree)


def test_walker_path_matrix_rejects_what_walker_graph_rejects():
    for walkers, degree in ((0, 3), (-1, 3), (2, -1)):
        with pytest.raises(ValueError) as expected:
            walker_graph(c3_chamber(), walkers, degree)
        with pytest.raises(ValueError) as got:
            transfer_matrix(c3_chamber(), walkers, degree)
        assert str(got.value) == str(expected.value), (walkers, degree)


def test_lgv_route_builds_no_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("the lgv route built a WeightedDag")

    expected = [engine_series("lgv", spec, 5)[0] for spec in (c3_chamber(), conifold_theta(0))]
    monkeypatch.setattr(lgv, "WeightedDag", refuse)
    for spec, value in zip((c3_chamber(), conifold_theta(0)), expected):
        assert engine_series("lgv", spec, 5)[0] == value
        assert value == enumerate_z(spec, 5)


def transfer_differs(monkeypatch, name, replacement):
    with monkeypatch.context() as m:
        m.setattr(lgv, name, replacement)
        return any(
            transfer_matrix(spec, walkers, degree) != graph_matrix(spec, walkers, degree)
            for spec, walkers, degree in transfer_cases()
        )


def test_rail_cut_after_the_step_is_caught(monkeypatch):
    # a term on the rail may still climb, so the table after the step
    # overstates what it still has to pay
    def after(least, i, rail):
        return least[i + 1]

    assert transfer_differs(monkeypatch, "_live_table", after)


def test_plus_step_swept_with_the_lift_is_caught(monkeypatch):
    # read after its own update, a plus step lets a walker climb like a rail
    def with_the_lift(hmax, lift, rail):
        up = range(hmax + 1)
        return up if lift > 0 else up[::-1]

    assert transfer_differs(monkeypatch, "_sweep_order", with_the_lift)


def test_transfer_sink_cut_changes_no_entry(monkeypatch):
    # least 0 at every height is the plain cut at the cutoff
    def plain(steps, walkers, hmax):
        return [[0] * (hmax + 1) for _ in range(len(steps) + 1)]

    assert not transfer_differs(monkeypatch, "_least_by_step", plain)


def test_over_eager_transfer_sink_cut_is_caught(monkeypatch):
    least = lgv._least_by_step

    def eager(steps, walkers, hmax):
        return [[x + 1 for x in row] for row in least(steps, walkers, hmax)]

    assert transfer_differs(monkeypatch, "_least_by_step", eager)


def test_one_row_short_walker_count_is_caught(monkeypatch):
    # one walker fewer than the row bound drops configurations somewhere, on
    # a table read as it is and on one read flipped
    cases = [
        (spec, degree, engines._lgv_route(spec, degree)[1] != potential_steps(spec, degree))
        for spec, degree in scan_sample()
    ]
    real = engines.row_bound
    monkeypatch.setattr(
        engines, "row_bound", lambda table, degree: tuple(b - 1 for b in real(table, degree))
    )
    clear_route_caches()
    caught = {False: 0, True: 0}
    try:
        for spec, degree, flip in cases:
            caught[flip] += engine_series("lgv", spec, degree)[0] != chamber_product(spec, degree)
    finally:
        clear_route_caches()
    assert caught[False] and caught[True], caught
