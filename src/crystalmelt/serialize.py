"""Byte-stable JSON and TSV forms for the value types.

Term order is lexicographic in the exponent vector and coefficients travel as
decimal strings, so equal objects always produce identical bytes and huge
integers survive consumers that only have doubles.
"""

from .chambers import ChamberSpec
from .series import TruncatedSeries


def series_to_json_dict(series: TruncatedSeries) -> dict:
    return {
        "vars": [f"q{i}" for i in range(series.num_vars)],
        "cutoff": series.cutoff,
        "terms": [
            {"exp": list(exp), "coef": str(coef)}
            for exp, coef in sorted(series.terms.items())
        ],
    }


def series_to_tsv(series: TruncatedSeries) -> str:
    columns = [f"exp_{i}" for i in range(series.num_vars)] + ["coefficient"]
    lines = ["\t".join(columns)]
    for exp, coef in sorted(series.terms.items()):
        lines.append("\t".join([str(e) for e in exp] + [str(coef)]))
    return "\n".join(lines) + "\n"


def chamber_to_json_dict(spec: ChamberSpec) -> dict:
    return {"L": spec.L, "rho": list(spec.rho), "theta": list(spec.theta)}


def chamber_from_json_dict(data: dict) -> ChamberSpec:
    """Inverse of chamber_to_json_dict: L an integer, rho and theta integer
    lists. A missing or ill-typed field raises ValueError naming it."""
    for field in ("L", "rho", "theta"):
        if field not in data:
            raise ValueError(f"chamber is missing the field {field!r}")
    if not _is_int(data["L"]):
        raise ValueError("chamber field 'L' must be an integer")
    for field in ("rho", "theta"):
        value = data[field]
        if not isinstance(value, list) or not all(_is_int(v) for v in value):
            raise ValueError(f"chamber field {field!r} must be a list of integers")
    return ChamberSpec(data["L"], tuple(data["rho"]), tuple(data["theta"]))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
