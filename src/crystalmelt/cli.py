"""Command-line front end.

Subcommands map one-to-one onto the computational engines plus the spectral
checks and the verification battery. --geometry only names the chamber (c3,
the conifold chamber theta_n, or an explicit (L, rho, theta) object); the
route each engine takes is chosen from the chamber itself by
engines.engine_series, so a general chamber shaped like c3 or theta_n gets
the same routes as the named geometry. Reports are deterministic: term order,
key order, and whitespace are fixed, so byte-identical output means
byte-identical results. Every JSON report goes through one writer,
serialize.report_to_json, byte-identical to json.dumps(..., sort_keys=True,
indent=2); an engine report carries each engine's series as it is, and the
writer writes it straight from its terms.

A process builds one parser (build_parser). The top level and its six
sub-commands, with their names and help strings, are built up front; a
sub-command's own arguments are added once, just before it first parses
(_LazySubParsersAction), so a call pays only for the sub-command it runs.
Usage, help and error texts are those of a parser built in full.

Importing this module loads argparse, sys, functools and .errors, and no
engine. Each handler imports what it runs, where it runs: an engine command
loads engines (every route), chambers and serialize; spectral loads
spectral, random and fractions; verify loads verify, which loads the rest,
and json. So --help loads no engine, and product or toeplitz loads neither
verify nor spectral. A name imported inside a function is read from its
module at each call, so a wrapper or patch set on that module is seen.

Exit codes: 0 success or agreement, 1 a check or cross-engine comparison
failed, 2 invalid input (an --out path that cannot be written included), 3
an internal guard tripped (the Toeplitz size certificate or oracle size).
"""

import argparse
import sys
from functools import lru_cache

from .errors import (
    DimensionError,
    InvalidGraphError,
    NonTerminatingProductError,
    NotInvertibleError,
    OracleTooLargeError,
    SingularParametersError,
    StabilizationFailureError,
    UnsupportedChamberError,
)

_INVALID_INPUT = (
    UnsupportedChamberError,
    InvalidGraphError,
    SingularParametersError,
    DimensionError,
    NotInvertibleError,
    ValueError,
    ZeroDivisionError,
)
_INTERNAL_LIMIT = (
    StabilizationFailureError,
    OracleTooLargeError,
    NonTerminatingProductError,
)


class JobConfig:
    """One engine run's settings, checked when made."""

    def __init__(
        self,
        geometry: str,
        chamber: object = 0,
        degree: int = 0,
        engines: tuple[str, ...] = ("enumerate",),
        output_format: str = "json",
    ):
        from .engines import ENGINES

        self.geometry = geometry
        self.chamber = chamber
        self.degree = degree
        self.engines = engines
        self.output_format = output_format
        if geometry not in ("c3", "conifold", "general"):
            raise ValueError(f"unknown geometry {geometry!r}")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if not engines:
            raise ValueError("at least one engine is required")
        for name in engines:
            if name not in ENGINES:
                raise ValueError(f"unknown engine {name!r}")
        if len(set(engines)) != len(engines):
            raise ValueError("duplicate engine in list")
        if output_format not in ("json", "tsv"):
            raise ValueError(f"unknown output format {output_format!r}")
        if output_format == "tsv" and len(engines) != 1:
            raise ValueError("tsv output supports exactly one engine")

    def resolve_chamber(self):
        from .chambers import c3_chamber, conifold_theta
        from .serialize import chamber_from_json_dict

        if self.geometry == "c3":
            if self.chamber not in (0, None):
                raise ValueError("the c3 geometry has a single chamber; omit --chamber")
            return c3_chamber()
        if self.geometry == "conifold":
            n = self.chamber
            if not isinstance(n, int) or n < 0:
                raise ValueError("conifold chamber must be an integer n >= 0")
            return conifold_theta(n)
        if not isinstance(self.chamber, dict):
            raise ValueError("general geometry needs an explicit chamber object")
        return chamber_from_json_dict(self.chamber)


def run_job(cfg: JobConfig) -> dict:
    """Run the configured engines and compare their series pairwise; returns
    the report, which holds each engine's TruncatedSeries as it is."""
    import itertools

    from .engines import engine_series
    from .serialize import chamber_to_json_dict

    spec = cfg.resolve_chamber()
    engines = {}
    for name in cfg.engines:
        value, extras = engine_series(name, spec, cfg.degree)
        engines[name] = {"series": value, **extras}
    pairwise = []
    agree = True
    for a, b in itertools.combinations(sorted(cfg.engines), 2):
        equal = engines[a]["series"] == engines[b]["series"]
        agree = agree and equal
        pairwise.append({"engines": [a, b], "equal": equal})
    chamber_echo = cfg.chamber
    if cfg.geometry == "general":
        chamber_echo = chamber_to_json_dict(spec)
    report = {
        "agreement": agree,
        "config": {
            "chamber": chamber_echo,
            "degree": cfg.degree,
            "engines": list(cfg.engines),
            "geometry": cfg.geometry,
        },
        "engines": engines,
        "pairwise": pairwise,
    }
    return report


def _dump_json(payload) -> str:
    from .serialize import report_to_json

    return report_to_json(payload) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _engine_command(args, default_engine: str) -> int:
    chamber = _parse_chamber(args.geometry, args.chamber)
    engines = _parse_engines(args.engines, default_engine)
    cfg = JobConfig(
        geometry=args.geometry,
        chamber=chamber,
        degree=args.degree,
        engines=engines,
        output_format=args.format,
    )
    report = run_job(cfg)
    if cfg.output_format == "tsv":
        from .serialize import series_to_tsv

        text = series_to_tsv(report["engines"][cfg.engines[0]]["series"])
    else:
        text = _dump_json(report)
    _emit(text, args.out)
    return 0 if report["agreement"] else 1


def _parse_chamber(geometry: str, raw: str | None):
    if raw is None:
        return 0 if geometry != "general" else None
    raw = raw.strip()
    if geometry == "general":
        import json

        parsed = json.loads(raw)
        if not isinstance(parsed, dict):
            raise ValueError("general chamber must be a JSON object with L, rho, theta")
        return parsed
    return int(raw)


def _parse_engines(raw: str | None, default_engine: str) -> tuple[str, ...]:
    if raw is None:
        return (default_engine,)
    raw = raw.strip()
    if raw == "all":
        from .engines import ENGINES

        return ENGINES
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    return names


def _parse_fraction(label: str, raw: str):
    from fractions import Fraction

    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{label} is not a rational number: {raw!r}") from exc


def _spectral_command(args) -> int:
    import random

    from .spectral import (
        CurveParams,
        mirror_map,
        random_curve_params,
        s3_equivariance_check,
        spp_identity_squared,
        spp_limit_check,
    )

    if args.trials < 0:
        raise ValueError("--trials must be >= 0")
    rng_params = CurveParams(
        _parse_fraction("--q", args.q),
        _parse_fraction("--mu", args.mu),
        _parse_fraction("--eps2", args.eps2),
    )
    rng = random.Random(args.seed)
    report = {"check": args.check, "seed": args.seed}
    if args.check == "mirror":
        coeffs = mirror_map(rng_params)
        report["params"] = {
            "Q": str(rng_params.Q),
            "mu": str(rng_params.mu),
            "eps2": str(rng_params.eps2),
        }
        report["coefficients"] = {
            "Q1": str(coeffs.Q1),
            "Q2": str(coeffs.Q2),
            "Q3": str(coeffs.Q3),
        }
        report["passed"] = True
    elif args.check in ("s3", "spp-limit"):
        failures = []
        checker = s3_equivariance_check if args.check == "s3" else spp_limit_check
        trials = [rng_params] + [random_curve_params(rng) for _ in range(args.trials)]
        for i, p in enumerate(trials):
            res = checker(p)
            if not res:
                entry = {"trial": i, "Q": str(p.Q), "mu": str(p.mu), "eps2": str(p.eps2)}
                perm = getattr(res, "permutation", None)
                if perm is not None:
                    entry["permutation"] = perm
                failures.append(entry)
        report["trials"] = len(trials)
        report["failures"] = failures
        report["passed"] = not failures
    else:
        ok = spp_identity_squared(args.chamber, args.degree)
        report["chamber"] = args.chamber
        report["degree"] = args.degree
        report["passed"] = bool(ok)
    _emit(_dump_json(report), args.out)
    return 0 if report["passed"] else 1


def _verify_command(args) -> int:
    import json

    from .verify import verify_all

    results = verify_all(args.degree, args.chamber, seed=args.seed)
    passed = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "passed": passed,
            "results": [
                {
                    "counterexamples": r.counterexamples,
                    "detail": r.detail,
                    "name": r.name,
                    "passed": r.passed,
                }
                for r in results
            ],
        }
        text = _dump_json(payload)
    else:
        lines = []
        for r in results:
            lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
            if not r.passed:
                for entry in r.counterexamples:
                    lines.append(f"    {json.dumps(entry, sort_keys=True)}")
        lines.append(f"{'all checks passed' if passed else 'SOME CHECKS FAILED'}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if passed else 1


class _LazySubParsersAction(argparse._SubParsersAction):
    """Sub-parsers whose arguments are added when first dispatched to.

    add_parser takes one more keyword, arguments: a function that adds the
    sub-parser's arguments. It runs once, just before the sub-parser first
    parses, so the texts that sub-parser prints (its usage, help and
    errors) see every argument, while the top level's texts read only the
    sub-commands' names and help strings, which add_parser sets up front.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = {}

    def add_parser(self, name, *, arguments, **kwargs):
        self._pending[name] = arguments
        return super().add_parser(name, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        arguments = self._pending.pop(values[0], None)
        if arguments is not None:
            arguments(self._name_parser_map[values[0]])
        super().__call__(parser, namespace, values, option_string)


_ENGINE_COMMANDS = (
    ("enumerate", "sweep partition evolutions directly"),
    ("product", "expand the closed product form"),
    ("toeplitz", "stabilized Toeplitz determinant route"),
    ("lgv", "non-intersecting walker determinant route"),
)


def _engine_arguments(p):
    p.add_argument("--geometry", choices=("c3", "conifold", "general"), default="c3")
    p.add_argument("--chamber", help="chamber index n, or a JSON object for --geometry general")
    p.add_argument("--degree", type=int, default=6, help="truncation degree D")
    p.add_argument("--engines", help="comma list from {enumerate,product,toeplitz,lgv}, or 'all'")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--out", help="write the report to this path instead of stdout")


def _spectral_arguments(p):
    p.add_argument(
        "--check", choices=("mirror", "s3", "spp-limit", "spp-identity"), required=True
    )
    p.add_argument("--q", default="2/3", help="Kaehler parameter Q as a fraction")
    p.add_argument("--mu", default="1/5", help="mass parameter as a fraction")
    p.add_argument("--eps2", default="1/7", help="refinement parameter as a fraction")
    p.add_argument("--trials", type=int, default=20, help="extra random parameter triples")
    p.add_argument("--chamber", type=int, default=1, help="chamber index for spp-identity")
    p.add_argument("--degree", type=int, default=6, help="truncation degree for spp-identity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")


def _verify_arguments(p):
    from .verify import DEFAULT_SEED

    p.add_argument("--degree", type=int, default=12, help="degree cap for every check")
    p.add_argument("--chamber", type=int, default=2, help="largest conifold chamber index")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, so every call of main shares it. Each sub-command's
    arguments are added the first time it is dispatched to
    (_LazySubParsersAction)."""
    parser = argparse.ArgumentParser(
        prog="crystalmelt",
        description="Exact partition functions of melting crystals, computed several ways",
    )
    parser.register("action", "parsers", _LazySubParsersAction)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _ENGINE_COMMANDS:
        p = sub.add_parser(name, help=blurb, arguments=_engine_arguments)
        p.set_defaults(func=lambda args, default=name: _engine_command(args, default))
    sp = sub.add_parser(
        "spectral",
        help="rational checks on the mirror curve coefficients",
        arguments=_spectral_arguments,
    )
    sp.set_defaults(func=_spectral_command)
    vp = sub.add_parser(
        "verify", help="run the full cross-representation battery", arguments=_verify_arguments
    )
    vp.set_defaults(func=_verify_command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except _INTERNAL_LIMIT as exc:
        _print_error(exc)
        return 3
    except _INVALID_INPUT as exc:
        _print_error(exc)
        return 2


def _print_error(exc: BaseException) -> None:
    import json

    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
