import json
import random

import pytest

from crystalmelt import (
    TruncatedSeries,
    chamber_from_json_dict,
    chamber_to_json_dict,
    conifold_theta,
    report_to_json,
    series_to_tsv,
)
from oracles import read_series_json, report_text


def random_series(rng, num_vars, cutoff):
    terms = {}
    for _ in range(rng.randint(0, 8)):
        exps = tuple(rng.randint(0, cutoff) for _ in range(num_vars))
        if sum(exps) <= cutoff:
            terms[exps] = rng.randint(-10**12, 10**12)
    return TruncatedSeries(num_vars, cutoff, terms)


def test_series_json_round_trip():
    rng = random.Random(140)
    for _ in range(60):
        f = random_series(rng, rng.randint(1, 3), rng.randint(0, 9))
        assert TruncatedSeries(*read_series_json(json.loads(report_to_json(f)))) == f


def test_series_json_layout():
    f = TruncatedSeries(2, 4, {(2, 1): -7, (0, 0): 1, (1, 1): 12})
    d = json.loads(report_to_json(f))
    assert d["vars"] == ["q0", "q1"]
    assert d["cutoff"] == 4
    # terms sorted lexicographically by exponent vector, coefficients as strings
    assert d["terms"] == [
        {"exp": [0, 0], "coef": "1"},
        {"exp": [1, 1], "coef": "12"},
        {"exp": [2, 1], "coef": "-7"},
    ]


def test_series_json_is_byte_stable():
    # equal series built from their terms in opposite orders write the same bytes
    rng = random.Random(17)
    f = random_series(rng, 2, 6)
    g = TruncatedSeries(2, 6, dict(reversed(list(f.terms.items()))))
    assert g == f
    assert report_to_json(f) == report_to_json(g)


def test_series_json_validates_arity():
    d = json.loads(report_to_json(TruncatedSeries.one(2, 3)))
    d["terms"] = [{"exp": [1], "coef": "1"}]
    with pytest.raises(ValueError):
        read_series_json(d)


def test_writer_matches_the_stdlib_on_series_payloads():
    big = 10**60
    series = [
        TruncatedSeries.zero(1, 0),
        TruncatedSeries.zero(3, 5),
        TruncatedSeries.one(1, 0),
        TruncatedSeries(1, 4, {(0,): -1, (3,): big, (4,): -big}),
        TruncatedSeries(2, 4, {(2, 1): -7, (0, 0): 1, (1, 1): 12, (0, 4): big}),
        TruncatedSeries(4, 3, {(0, 0, 0, 3): -big, (1, 0, 2, 0): 5, (3, 0, 0, 0): 2}),
    ]
    rng = random.Random(25)
    series += [random_series(rng, rng.randint(1, 4), rng.randint(0, 9)) for _ in range(40)]
    for f in series:
        # the same series at several depths, in dicts, lists and tuples
        for payload in (
            f,
            [f],
            {"series": f},
            {"engines": {"a": {"series": f, "stabilized_at": 3}}, "ok": True},
            [{"x": [f, (f, None)]}, [], {}, (), -big, False],
        ):
            assert report_to_json(payload) == report_text(payload), (f, payload)


def test_writer_matches_the_stdlib_on_strings():
    strings = ["", "plain", 'quote " and \\ backslash', "tab\tnewline\nnul\x00",
               "\x1f\x7f", "caf\u00e9", "\u2028\u2029", "snow \u2603", "\U0001F600 face",
               "/slash", "\ud800 lone surrogate"]
    payload = {s: [s, {s: s}] for s in strings}
    payload["list"] = strings
    assert report_to_json(payload) == report_text(payload)
    for s in strings:
        assert report_to_json(s) == json.dumps(s)


def test_writer_rejects_values_outside_the_report_types():
    for payload in ({"a": object()}, [1.5], {1: "int key"}, {("a",): 1}):
        with pytest.raises(TypeError):
            report_to_json(payload)


def test_series_tsv_golden():
    f = TruncatedSeries(2, 3, {(1, 2): 3, (0, 0): 1, (2, 1): -2})
    assert series_to_tsv(f) == (
        "exp_0\texp_1\tcoefficient\n" "0\t0\t1\n" "1\t2\t3\n" "2\t1\t-2\n"
    )


def test_tsv_of_empty_series_is_header_only():
    assert series_to_tsv(TruncatedSeries.zero(1, 2)) == "exp_0\tcoefficient\n"


def test_chamber_round_trip():
    for n in range(4):
        spec = conifold_theta(n)
        d = chamber_to_json_dict(spec)
        assert d == {"L": 2, "rho": [1, -1], "theta": [1 - 2 * n, 3 + 2 * n]}
        assert chamber_from_json_dict(d) == spec


def test_chamber_from_json_validates():
    with pytest.raises(ValueError):
        chamber_from_json_dict({"L": 2, "rho": [1, -1], "theta": [1, 7]})
    with pytest.raises(ValueError, match="theta"):
        chamber_from_json_dict({"L": 2, "rho": [1, -1]})
    with pytest.raises(ValueError, match="rho"):
        chamber_from_json_dict({"L": 2})
    with pytest.raises(ValueError, match="rho"):
        chamber_from_json_dict({"L": 2, "rho": 1, "theta": [1, 3]})
    with pytest.raises(ValueError, match="theta"):
        chamber_from_json_dict({"L": 2, "rho": [1, -1], "theta": None})
    with pytest.raises(ValueError, match="'L'"):
        chamber_from_json_dict({"L": "2", "rho": [1, -1], "theta": [1, 3]})
