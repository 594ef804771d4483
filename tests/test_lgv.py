"""Non-intersecting path determinants and the walker graphs."""

import random

import pytest

from crystalmelt import (
    InvalidGraphError,
    OracleTooLargeError,
    TruncatedSeries,
    c3_chamber,
    conifold_theta,
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
from crystalmelt import UnsupportedChamberError, WeightedDag
from crystalmelt.lgv import _paths_between


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
        if g.n_paths != 1:
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


def test_walker_graph_rejects_multi_peak_chambers():
    with pytest.raises(UnsupportedChamberError):
        walker_graph(conifold_theta(1), 2, 2)


def test_profile_bijection_small_battery():
    for spec in (c3_chamber(), conifold_theta(0)):
        for walkers in (1, 2):
            for degree in (0, 1, 2):
                assert profile_bijection_check(spec, walkers, degree), (
                    spec.L,
                    walkers,
                    degree,
                )


def test_graph_json_export_is_deterministic():
    g, _ = junction_graph()
    d1 = g.to_json_dict()
    d2 = junction_graph()[0].to_json_dict()
    assert d1 == d2
    assert [tuple(e["from"]) for e in d1["edges"]] == sorted(
        tuple(e["from"]) for e in d1["edges"]
    )
