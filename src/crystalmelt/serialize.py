"""Byte-stable JSON and TSV forms for the value types.

Term order is lexicographic in the exponent vector and coefficients travel as
decimal strings, so equal objects always produce identical bytes and huge
integers survive consumers that only have doubles.

report_to_json is the one writer of every JSON report (engine, verify and
spectral). Its text is byte-identical to json.dumps(payload, sort_keys=True,
indent=2) with each TruncatedSeries in the payload replaced by its dict form

    {"cutoff": D, "terms": [{"coef": "c", "exp": [e_0, ...]}, ...],
     "vars": ["q0", ...]}

terms in lexicographic exponent order. It writes a series straight from its
terms through one preformatted term template per (number of variables,
indent), building no dict per term, and everything else the way the
stdlib's encoder writes it, strings through encode_basestring_ascii. For an
indent json.dumps has only its pure-Python encoder.
"""

from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .chambers import ChamberSpec
from .series import TruncatedSeries


def report_to_json(payload) -> str:
    """payload as json.dumps(payload, sort_keys=True, indent=2) writes it,
    each TruncatedSeries written in its dict form (module docstring). Dicts
    need str keys; lists, tuples, str, int, bool and None are written as the
    stdlib writes them, and any other value raises TypeError."""
    out = []
    _write(payload, "\n", out)
    return "".join(out)


def _write(value, newline, out):
    """Append the text of value to out; newline is a line break followed by
    the indent of the line value starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, TruncatedSeries):
        frame, term, opener, separator, closer = _series_layout(value.num_vars, newline)
        terms = sorted(value.terms.items())
        body = separator.join([term % (coef, *exps) for exps, coef in terms])
        out.append(frame % (value.cutoff, opener + body + closer if terms else "[]"))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[" + inner)
        for i, item in enumerate(value):
            if i:
                out.append("," + inner)
            _write(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(("," if i else "") + inner + encode_basestring_ascii(key) + ": ")
            _write(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@lru_cache(maxsize=None)
def _series_layout(num_vars: int, newline: str):
    """How a series of num_vars variables is written when its dict starts on
    a line with the indent of newline: the frame, with slots for the cutoff
    and the terms list; the term template, with slots for the coefficient
    and the exponents; and what opens, separates and closes the terms."""
    n1 = newline + "  "
    n2 = n1 + "  "
    n3 = n2 + "  "
    n4 = n3 + "  "
    names = ("," + n2).join(f'"q{i}"' for i in range(num_vars))
    frame = f'{{{n1}"cutoff": %d,{n1}"terms": %s,{n1}"vars": [{n2}{names}{n1}]{newline}}}'
    exps = ("," + n4).join(["%d"] * num_vars)
    term = f'{{{n3}"coef": "%d",{n3}"exp": [{n4}{exps}{n3}]{n2}}}'
    return frame, term, "[" + n2, "," + n2, n1 + "]"


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
