import json
import random

import pytest

from crystalmelt import (
    TruncatedSeries,
    chamber_from_json_dict,
    chamber_to_json_dict,
    conifold_theta,
    series_to_json_dict,
    series_to_tsv,
)
from oracles import read_series_json


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
        assert TruncatedSeries(*read_series_json(series_to_json_dict(f))) == f


def test_series_json_layout():
    f = TruncatedSeries(2, 4, {(2, 1): -7, (0, 0): 1, (1, 1): 12})
    d = series_to_json_dict(f)
    assert d["vars"] == ["q0", "q1"]
    assert d["cutoff"] == 4
    # terms sorted lexicographically by exponent vector, coefficients as strings
    assert d["terms"] == [
        {"exp": [0, 0], "coef": "1"},
        {"exp": [1, 1], "coef": "12"},
        {"exp": [2, 1], "coef": "-7"},
    ]


def test_series_json_is_byte_stable():
    rng = random.Random(17)
    f = random_series(rng, 2, 6)
    a = json.dumps(series_to_json_dict(f), sort_keys=True)
    b = json.dumps(series_to_json_dict(f), sort_keys=True)
    assert a == b


def test_series_json_validates_arity():
    d = series_to_json_dict(TruncatedSeries.one(2, 3))
    d["terms"] = [{"exp": [1], "coef": "1"}]
    with pytest.raises(ValueError):
        read_series_json(d)


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
