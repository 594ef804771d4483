"""Cross-checks that the independent representations agree with each other.

verify_all runs ten checks, each comparing two or more computational routes
(direct enumeration, infinite products, stabilized Toeplitz determinants,
walker-path determinants, spectral-curve algebra) coefficient by coefficient
in exact arithmetic. The production routes a check compares against (the
products and the Toeplitz values) come from engines.engine_series, the same
wiring the command line runs. Degrees scale down with Dmax and chamber
indices with nmax so fast smoke runs stay cheap; the defaults run the full
battery.
"""

import random
from math import isqrt
from typing import NamedTuple

from .chambers import c3_chamber, conifold_theta
from .engines import _lgv_route, engine_series
from .enumeration import enumerate_z, enumerate_z_transposed
from .lgv import (
    WeightedDag,
    _walker_graph,
    _walker_transfer,
    lgv_det,
    nonintersecting_bruteforce,
    path_matrix,
    profile_bijection_check,
    random_layered_dag,
)
from .matrixmodel import chamber_prefactor, chamber_symbol
from .products import macmahon_two_var, wall_factor
from .series import LaurentSymbol, TruncatedSeries, det_division_free
from .spectral import (
    _spp_identity_sides,
    random_curve_params,
    s3_equivariance_check,
    spp_limit_check,
)


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    counterexamples: list


MACMAHON_HEAD = (1, 1, 3, 6, 13, 24)
DEFAULT_SEED = 1729


def _series_mismatches(lhs, rhs, limit=5, **tags):
    """First few coefficient disagreements between two series, as dicts."""
    if lhs == rhs:  # equal series compare their packed terms, decoding none
        return []
    out = []
    for exps in sorted(set(lhs.terms) | set(rhs.terms)):
        a = lhs.terms.get(exps, 0)
        b = rhs.terms.get(exps, 0)
        if a != b:
            entry = {"exponents": list(exps), "lhs": str(a), "rhs": str(b)}
            entry.update(tags)
            out.append(entry)
            if len(out) >= limit:
                break
    return out


def _flip(series, criterion, fault):
    """Perturb one coefficient when the requested fault targets this check."""
    if fault is None or fault[0] != criterion:
        return series
    exps = tuple(fault[1])
    if len(exps) != series.num_vars:
        raise ValueError("fault exponent arity does not match the compared series")
    if sum(exps) > series.cutoff:
        raise ValueError("fault exponent beyond the compared series cutoff")
    return series + TruncatedSeries.monomial(series.num_vars, series.cutoff, exps)


def _cached_c3(cache, Dmax):
    if "c3" not in cache:
        cache["c3"] = enumerate_z(c3_chamber(), min(12, Dmax))
    return cache["c3"]


def _cached_conifold(cache, n, Dmax):
    key = ("theta", n)
    if key not in cache:
        cache[key] = enumerate_z(conifold_theta(n), min(10, Dmax))
    return cache[key]


def _run_c3_enumeration(Dmax, nmax, fault, rng, cache):
    d = min(12, Dmax)
    lhs = _flip(_cached_c3(cache, Dmax).truncate(d), 1, fault)
    bad = _series_mismatches(lhs, engine_series("product", c3_chamber(), d)[0])
    for k in range(min(5, d) + 1):
        got = lhs.coefficient((k,))
        if got != MACMAHON_HEAD[k]:
            bad.append({"exponents": [k], "lhs": str(got), "rhs": str(MACMAHON_HEAD[k])})
    detail = (
        f"crystal enumeration to degree {d} equals the MacMahon product, "
        f"with leading coefficients pinned to {MACMAHON_HEAD[: min(5, d) + 1]}"
    )
    return CriterionResult("c3-enumeration-vs-product", not bad, detail, bad)


def _run_conifold_enumeration(Dmax, nmax, fault, rng, cache):
    d = min(10, Dmax)
    ns = list(range(min(2, nmax) + 1))
    bad = []
    for n in ns:
        lhs = _cached_conifold(cache, n, Dmax).truncate(d)
        if n == ns[-1]:
            lhs = _flip(lhs, 2, fault)
        bad += _series_mismatches(lhs, engine_series("product", conifold_theta(n), d)[0], n=n)
    detail = f"conifold enumeration to degree {d} equals the chamber product for n in {ns}"
    return CriterionResult("conifold-enumeration-vs-product", not bad, detail, bad)


def _run_c3_toeplitz(Dmax, nmax, fault, rng, cache):
    d = min(8, Dmax)
    value, extras = engine_series("toeplitz", c3_chamber(), d)
    stabilized_at = extras["stabilized_at"]
    lhs = _flip(value, 3, fault)
    bad = _series_mismatches(lhs, engine_series("product", c3_chamber(), d)[0])
    # r rows need r^2 boxes, so the proven size is floor(sqrt(d))
    if stabilized_at != isqrt(d):
        bad.append({"stabilized_at": stabilized_at, "expected": isqrt(d)})
    detail = (
        f"Toeplitz determinant of the single-walker symbol stabilizes at size "
        f"{stabilized_at} and equals the MacMahon series to degree {d}"
    )
    return CriterionResult("c3-toeplitz-determinant", not bad, detail, bad)


def _binomial_symbol(cutoff, window, zpow, exps, sign):
    one = TruncatedSeries.one(2, cutoff)
    return LaurentSymbol(
        2, cutoff, window, {0: one, zpow: TruncatedSeries.monomial(2, cutoff, exps, sign)}
    )


def _geometric_symbol(cutoff, window, zpow, exps):
    """1/(1 - q^exps z^zpow) expanded term by term; exps has positive degree."""
    coeffs = {}
    j = 0
    while sum(exps) * j <= cutoff:
        m = zpow * j
        if abs(m) <= window:
            coeffs[m] = TruncatedSeries.monomial(2, cutoff, tuple(e * j for e in exps))
        j += 1
    return LaurentSymbol(2, cutoff, window, coeffs)


def _conifold_symbol_direct(cutoff):
    """The n=0 walker symbol assembled from per-factor geometric expansions.

    This takes a different route from chamber_symbol: every denominator
    factor is replaced by its explicit geometric series before multiplying
    out, with no graded-inverse division anywhere.
    """
    window = cutoff + 1
    f = LaurentSymbol.identity(2, cutoff, window)
    for k in range(1, cutoff // 2 + 1):
        f = f * _binomial_symbol(cutoff, window, 1, (k, k), 1)
        f = f * _binomial_symbol(cutoff, window, -1, (k, k), 1)
    for k in range((cutoff + 1) // 2 + 1):
        f = f * _geometric_symbol(cutoff, window, 1, (k, k + 1))
        f = f * _geometric_symbol(cutoff, window, -1, (k + 1, k))
    one = TruncatedSeries.one(2, cutoff)
    return f * LaurentSymbol(2, cutoff, window, {0: one, 1: one})


def _run_conifold_toeplitz(Dmax, nmax, fault, rng, cache):
    bad = []
    dd = min(4, Dmax)
    built = chamber_symbol(conifold_theta(0), dd)
    direct = _conifold_symbol_direct(dd)
    for m in sorted(set(built.coeffs) | set(direct.coeffs)):
        bad += _series_mismatches(built.coefficient(m), direct.coefficient(m), limit=1, zpow=m)
    d = min(8, Dmax)
    ns = list(range(min(2, nmax) + 1))
    for n in ns:
        lhs = engine_series("toeplitz", conifold_theta(n), d)[0]
        if n == ns[-1]:
            lhs = _flip(lhs, 4, fault)
        bad += _series_mismatches(lhs, _cached_conifold(cache, n, Dmax).truncate(d), n=n)
    detail = (
        f"prefactor times stabilized Toeplitz determinant equals enumeration to degree {d} "
        f"for n in {ns}; the n=0 symbol matches its direct geometric expansion to degree {dd}"
    )
    return CriterionResult("conifold-toeplitz-determinant", not bad, detail, bad)


def _run_prefactor_collapse(Dmax, nmax, fault, rng, cache):
    bad = []
    for d in range(min(10, Dmax) + 1):
        c0 = chamber_prefactor(conifold_theta(0), d)
        bad += _series_mismatches(c0, TruncatedSeries.one(2, d), degree=d)
    d = min(8, Dmax)
    target = macmahon_two_var(d)
    ns = (d, d + 1, d + 5)
    for n in ns:
        lhs = chamber_prefactor(conifold_theta(n), d)
        if n == ns[-1]:
            lhs = _flip(lhs, 5, fault)
        bad += _series_mismatches(lhs, target, n=n)
    detail = (
        f"C_0 is exactly 1 through degree {min(10, Dmax)}, and C_n collapses to the "
        f"diagonal MacMahon series at degree {d} once n reaches the cutoff (n in {list(ns)})"
    )
    return CriterionResult("prefactor-collapse", not bad, detail, bad)


def _crossing_example():
    """Two walkers sharing one junction: a single disjoint family survives."""
    cutoff = 4
    w = [
        TruncatedSeries.monomial(6, cutoff, tuple(1 if i == j else 0 for i in range(6)))
        for j in range(6)
    ]
    a1, a2, mid, low, b1, b2 = (0, 1), (0, 0), (1, 1), (1, 0), (2, 1), (2, 0)
    edges = [
        (a1, mid, w[0]),
        (a2, mid, w[1]),
        (a2, low, w[2]),
        (mid, b1, w[3]),
        (low, b2, w[4]),
        (mid, b2, w[5]),
    ]
    g = WeightedDag(6, cutoff, edges, (a1, a2), (b1, b2))
    return g, w[0] * w[3] * w[2] * w[4]


def _run_lgv_oracle(Dmax, nmax, fault, rng, cache):
    bad = []
    g, expected = _crossing_example()
    bad += _series_mismatches(lgv_det(g), expected, graph="junction")
    bad += _series_mismatches(nonintersecting_bruteforce(g), expected, graph="junction")
    trials = 50
    for t in range(trials):
        h = random_layered_dag(rng)
        det = lgv_det(h)
        if t == trials - 1:
            det = _flip(det, 6, fault)
        bad += _series_mismatches(det, nonintersecting_bruteforce(h), trial=t)
    detail = (
        "walker determinant equals the brute-force non-intersecting sum on the "
        f"junction example and on {trials} seeded random layered graphs"
    )
    return CriterionResult("lgv-determinant-vs-bruteforce", not bad, detail, bad)


def _walker_det(spec, walkers, degree, bad, tags):
    """The walker determinant of the production route, the transfer over the
    lgv route's own table (engines._lgv_route), whose every entry must also
    equal path_matrix of the graph built over that table; entry mismatches go
    to bad with the given tags."""
    steps = _lgv_route(spec, degree)[1]
    matrix = _walker_transfer(spec.L, walkers, degree, steps)
    oracle = path_matrix(_walker_graph(spec.L, walkers, degree, steps))
    for i, (row, orow) in enumerate(zip(matrix, oracle)):
        for j, (got, want) in enumerate(zip(row, orow)):
            bad.extend(_series_mismatches(got, want, limit=1, entry=[i, j], **tags))
    return det_division_free(matrix)


def _run_walker_graphs(Dmax, nmax, fault, rng, cache):
    bad = []
    d = min(5, Dmax)
    target = engine_series("product", c3_chamber(), d)[0]
    r = _lgv_route(c3_chamber(), d)[0]
    for walkers in (r, r + 1):
        tags = {"geometry": "c3", "walkers": walkers}
        det = _walker_det(c3_chamber(), walkers, d, bad, tags)
        bad += _series_mismatches(det, target, **tags)
    dc = min(4, Dmax)
    ctarget = _cached_conifold(cache, 0, Dmax).truncate(dc)
    r = _lgv_route(conifold_theta(0), dc)[0]
    sizes = (r, r + 1)
    for walkers in sizes:
        tags = {"geometry": "conifold", "walkers": walkers}
        det = _walker_det(conifold_theta(0), walkers, dc, bad, tags)
        if walkers == sizes[-1]:
            det = _flip(det, 7, fault)
        bad += _series_mismatches(det, ctarget, **tags)
    db = min(3, Dmax)
    for name, spec in (("c3", c3_chamber()), ("conifold", conifold_theta(0))):
        for walkers in (1, 2, 3):
            for d0 in range(db + 1):
                res = profile_bijection_check(spec, walkers, d0)
                if not res:
                    bad.append(
                        {
                            "geometry": name,
                            "walkers": walkers,
                            "degree": d0,
                            "reason": getattr(res, "reason", "round-trip failed"),
                        }
                    )
    detail = (
        f"path determinants reproduce the enumeration at degrees {d} and {dc}, and every "
        f"non-intersecting family round-trips through height profiles up to degree {db}"
    )
    return CriterionResult("walker-graph-determinants", not bad, detail, bad)


def _run_transpose(Dmax, nmax, fault, rng, cache):
    d = min(8, Dmax)
    rows = [("c3", c3_chamber(), _cached_c3(cache, Dmax))]
    for n in range(min(2, nmax) + 1):
        rows.append((f"theta_{n}", conifold_theta(n), _cached_conifold(cache, n, Dmax)))
    bad = []
    for idx, (name, spec, plain) in enumerate(rows):
        lhs = plain.truncate(d)
        if idx == len(rows) - 1:
            lhs = _flip(lhs, 8, fault)
        bad += _series_mismatches(lhs, enumerate_z_transposed(spec, d), chamber=name)
    detail = f"row and column sweeps agree to degree {d} on {[name for name, _, _ in rows]}"
    return CriterionResult("transpose-invariance", not bad, detail, bad)


def _run_spectral(Dmax, nmax, fault, rng, cache):
    bad = []
    for t in range(100):
        res = s3_equivariance_check(random_curve_params(rng))
        if not res:
            bad.append({"check": "s3", "trial": t, "permutation": res.permutation})
    for t in range(20):
        p = random_curve_params(rng)
        if not spp_limit_check(p):
            bad.append(
                {"check": "limit", "trial": t, "params": [str(p.Q), str(p.mu), str(p.eps2)]}
            )
    d = min(6, Dmax)
    ns = list(range(1, min(2, nmax) + 1))
    for n in ns:
        lhs, rhs = _spp_identity_sides(n, d)
        if n == ns[-1]:
            lhs = _flip(lhs, 9, fault)
        bad += _series_mismatches(lhs, rhs, n=n)
    detail = (
        f"100 permutation-equivariance triples and 20 degeneration checks on random "
        f"rationals; squared identity to degree {d} for n in {ns}"
    )
    return CriterionResult("spectral-curve-checks", not bad, detail, bad)


def _run_wall_crossing(Dmax, nmax, fault, rng, cache):
    d = min(10, Dmax)
    ns = list(range(min(1, nmax - 1) + 1)) if nmax >= 1 else []
    bad = []
    for n in ns:
        lhs = engine_series("product", conifold_theta(n + 1), d)[0] * wall_factor(n + 1, d)
        if n == ns[-1]:
            lhs = _flip(lhs, 10, fault)
        bad += _series_mismatches(lhs, engine_series("product", conifold_theta(n), d)[0], n=n)
    detail = (
        f"multiplying back the wall factor recovers the neighboring chamber's "
        f"partition function to degree {d} for n in {ns}"
    )
    return CriterionResult("wall-crossing-factorization", not bad, detail, bad)


_RUNNERS = (
    (1, _run_c3_enumeration),
    (2, _run_conifold_enumeration),
    (3, _run_c3_toeplitz),
    (4, _run_conifold_toeplitz),
    (5, _run_prefactor_collapse),
    (6, _run_lgv_oracle),
    (7, _run_walker_graphs),
    (8, _run_transpose),
    (9, _run_spectral),
    (10, _run_wall_crossing),
)


def verify_all(Dmax: int = 12, nmax: int = 2, *, fault=None, seed: int = DEFAULT_SEED):
    """Run the ten cross-representation checks and return a result per check.

    Dmax caps every truncation degree and nmax caps the conifold chamber
    index, so smaller values give a faster but still meaningful battery.
    fault, when set to (check number, exponent tuple), adds 1 to one
    coefficient on the left side of that check's final comparison; exactly
    that check must then fail, which is how the harness itself is tested.
    All randomized trials are driven by the given seed.
    """
    if Dmax < 0:
        raise ValueError("Dmax must be >= 0")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if fault is not None and fault[0] not in {num for num, _ in _RUNNERS}:
        raise ValueError("fault does not name one of the ten checks")
    rng = random.Random(seed)
    cache = {}
    return [runner(Dmax, nmax, fault, rng, cache) for _, runner in _RUNNERS]
