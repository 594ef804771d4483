"""End-to-end command-line behavior, exercised in-process through main()."""

import functools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from crystalmelt import StabilizationFailureError, TruncatedSeries, verify_all
from crystalmelt.cli import build_parser, main
import crystalmelt.engines as engines_module
import crystalmelt.serialize as serialize_module
import crystalmelt.spectral as spectral_module
import crystalmelt.verify as verify_module
from oracles import eager_parser, report_text, shifted_chamber_data

GOLDEN = Path(__file__).with_name("golden")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_vs_product_c3(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--geometry", "c3", "--degree", "5",
        "--engines", "enumerate,product",
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["agreement"] is True
    terms = report["engines"]["enumerate"]["series"]["terms"]
    assert terms == [
        {"coef": "1", "exp": [0]},
        {"coef": "1", "exp": [1]},
        {"coef": "3", "exp": [2]},
        {"coef": "6", "exp": [3]},
        {"coef": "13", "exp": [4]},
        {"coef": "24", "exp": [5]},
    ]
    assert report["engines"]["product"]["series"]["terms"] == terms


def test_all_engines_agree_on_trivial_conifold(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--geometry", "conifold", "--chamber", "0",
        "--degree", "0", "--engines", "all",
    )
    assert code == 0
    report = json.loads(out)
    assert sorted(report["engines"]) == ["enumerate", "lgv", "product", "toeplitz"]
    for entry in report["engines"].values():
        assert entry["series"]["terms"] == [{"coef": "1", "exp": [0, 0]}]
    assert all(p["equal"] for p in report["pairwise"])


def test_conifold_three_engine_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "toeplitz", "--geometry", "conifold", "--chamber", "1",
        "--degree", "6", "--engines", "enumerate,product,toeplitz",
    )
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    assert report["engines"]["toeplitz"]["stabilized_at"] >= 1
    assert len(report["pairwise"]) == 3


def test_tsv_output_golden(capsys):
    code, out, _ = run_cli(
        capsys, "product", "--geometry", "c3", "--degree", "2", "--format", "tsv"
    )
    assert code == 0
    assert out == "exp_0\tcoefficient\n0\t1\n1\t1\n2\t3\n"


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "product", "--geometry", "c3", "--degree", "3", "--out", str(target)
    )
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["agreement"] is True


@pytest.mark.parametrize(
    "command", [("product", "--degree", "3"), ("verify", "--degree", "2", "--chamber", "0")]
)
def test_unwritable_out_exits_2_with_error_json(tmp_path, capsys, command):
    # a missing directory and a directory target, after the report is computed
    for target in (tmp_path / "missing" / "report.json", tmp_path):
        code, out, err = run_cli(capsys, *command, "--out", str(target))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and str(target) in error["message"]


def test_byte_stable_output(capsys):
    args = ("lgv", "--geometry", "conifold", "--chamber", "0", "--degree", "4",
            "--engines", "all")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_general_geometry_accepts_chamber_json(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--geometry", "general",
        "--chamber", '{"L": 2, "rho": [1, -1], "theta": [1, 3]}',
        "--degree", "3", "--engines", "enumerate,lgv",
    )
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    assert report["config"]["chamber"] == {"L": 2, "rho": [1, -1], "theta": [1, 3]}


def series_by_engine(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["agreement"] is True
    return {name: entry["series"] for name, entry in report["engines"].items()}


def test_general_geometry_gets_the_routes_of_its_shape(capsys):
    c3 = series_by_engine(
        capsys, "enumerate", "--geometry", "c3", "--degree", "5", "--engines", "all"
    )
    general = series_by_engine(
        capsys, "enumerate", "--geometry", "general",
        "--chamber", '{"L": 1, "rho": [1], "theta": [1]}',
        "--degree", "5", "--engines", "all",
    )
    assert general == c3
    for n in range(3):
        theta = json.dumps({"L": 2, "rho": [1, -1], "theta": [1 - 2 * n, 3 + 2 * n]})
        named = series_by_engine(
            capsys, "toeplitz", "--geometry", "conifold", "--chamber", str(n),
            "--degree", "4", "--engines", "enumerate,product,toeplitz",
        )
        general = series_by_engine(
            capsys, "toeplitz", "--geometry", "general", "--chamber", theta,
            "--degree", "4", "--engines", "enumerate,product,toeplitz",
        )
        assert general == named, n


def invalid_cases():
    return [
        ("enumerate", "--geometry", "c3", "--degree", "2", "--engines", "nonsense"),
        ("enumerate", "--geometry", "c3", "--degree", "2",
         "--engines", "enumerate,product", "--format", "tsv"),
        ("enumerate", "--geometry", "conifold", "--chamber", "-2", "--degree", "2"),
        ("enumerate", "--geometry", "general", "--degree", "2"),
        ("enumerate", "--geometry", "general", "--chamber", "[1, 2]", "--degree", "2"),
        ("enumerate", "--geometry", "c3", "--chamber", "1", "--degree", "2"),
        ("enumerate", "--geometry", "c3", "--degree", "-3"),
        ("lgv", "--geometry", "general",
         "--chamber", '{"L": 3, "rho": [1, 1, 1], "theta": [3, 1, 11]}', "--degree", "2",
         "--engines", "lgv,enumerate"),
        ("spectral", "--check", "mirror", "--q", "not-a-number"),
        ("spectral", "--check", "spp-identity", "--chamber", "0"),
        ("enumerate", "--geometry", "general", "--chamber", '{"L": 2}', "--degree", "2"),
        ("enumerate", "--geometry", "general",
         "--chamber", '{"L": 2, "rho": 1, "theta": [1, 3]}', "--degree", "2"),
        ("enumerate", "--geometry", "general",
         "--chamber", '{"L": 2, "rho": [1, -1], "theta": null}', "--degree", "2"),
        ("enumerate", "--geometry", "general",
         "--chamber", '{"L": 3, "rho": [1, 1, 1], "theta": [3, 9, -3]}', "--degree", "2"),
        ("spectral", "--check", "s3", "--trials", "-1"),
    ]


@pytest.mark.parametrize("argv", invalid_cases())
def test_invalid_input_exits_2_with_error_json(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert set(payload["error"]) == {"type", "message"}


def test_argparse_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["enumerate", "--geometry", "neither"]) == 2
    capsys.readouterr()
    assert main(["enumerate", "--seed", "1"]) == 2
    capsys.readouterr()


def test_one_parser_serves_every_call_of_a_process(capsys):
    # main shares one parser per process; each call in a sequence reads as a
    # fresh process's call, with its own default engine and its own error
    calls = [
        ("enumerate", "--degree", "3"),
        ("toeplitz", "--degree", "3"),
        ("toeplitz", "--geometry", "neither"),
        ("verify", "--degree", "3"),
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    build_parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in calls] == fresh
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert list(json.loads(fresh[0][1])["engines"]) == ["enumerate"]
    assert list(json.loads(fresh[1][1])["engines"]) == ["toeplitz"]
    assert "invalid choice: 'neither'" in fresh[2][2]


def parse_texts(parser, capsys, argv):
    """(exit code, stdout, stderr) of parser.parse_args(argv) for an argv that
    makes argparse exit: a help request or a usage error."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


PARSER_EXITS = [
    ["--help"],
    ["-h"],
    ["enumerate", "--help"],
    ["product", "-h"],
    ["toeplitz", "--help"],
    ["lgv", "--help"],
    ["spectral", "--help"],
    ["verify", "--help"],
    [],
    ["bogus"],
    ["--degree", "3"],
    ["enumerate", "--geometry", "neither"],
    ["enumerate", "--seed", "1"],
    ["toeplitz", "--degree", "x"],
    ["lgv", "--format", "xml"],
    ["product", "--engines"],
    ["spectral"],
    ["spectral", "--check", "nope"],
    ["spectral", "--check", "s3", "--trials", "many"],
    ["verify", "--format", "xml"],
    ["verify", "--degree"],
    ["verify", "--geometry", "c3"],
    ["verify", "--degree", "2", "extra"],
]


def test_lazy_parser_texts_equal_the_eager_parser(capsys):
    # every help, usage and error text, and its exit code, equals the fully
    # built parser's, whatever sub-commands the process filled in before
    oracle = eager_parser()
    expected = [parse_texts(oracle, capsys, argv) for argv in PARSER_EXITS]
    assert {code for code, _, _ in expected} == {0, 2}
    order = list(range(len(PARSER_EXITS)))
    for seed in range(4):
        random.Random(seed).shuffle(order)
        build_parser.cache_clear()
        for i in order:
            assert run_cli(capsys, *PARSER_EXITS[i]) == expected[i], PARSER_EXITS[i]
    build_parser.cache_clear()


def test_sub_command_arguments_are_added_on_dispatch(capsys):
    build_parser.cache_clear()
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]

    def filled():
        return sorted(name for name, p in sub.choices.items() if len(p._actions) > 1)

    assert filled() == []
    run_cli(capsys, "toeplitz", "--help")
    assert filled() == ["toeplitz"]
    run_cli(capsys, "verify", "--degree", "x")
    run_cli(capsys, "toeplitz", "--geometry", "neither")
    assert filled() == ["toeplitz", "verify"]
    assert len(sub.choices["toeplitz"]._actions) == 7  # -h and six options, added once
    build_parser.cache_clear()


def spy_reports(monkeypatch):
    """Record every payload the CLI hands the report writer, with its text."""
    seen = []
    writer = serialize_module.report_to_json

    def recording(payload):
        text = writer(payload)
        seen.append((payload, text))
        return text

    monkeypatch.setattr(serialize_module, "report_to_json", recording)
    return seen


def assert_reports_match_the_oracle(monkeypatch, capsys, calls):
    """Run each argv; its stdout must be the writer's text, and that text the
    stdlib's for the same payload. Returns each call's exit code and payload."""
    seen = spy_reports(monkeypatch)
    results = []
    for argv in calls:
        seen.clear()
        code, out, err = run_cli(capsys, *argv)
        assert err == "" and len(seen) == 1, argv
        payload, text = seen[0]
        assert out == text + "\n", argv
        assert text == report_text(payload), argv
        results.append((code, payload))
    return results


def test_engine_reports_match_the_oracle_on_the_scanned_chambers(monkeypatch, capsys):
    calls = [["toeplitz", "--geometry", "c3", "--degree", "8", "--engines", "all"]]
    calls += [
        ["lgv", "--geometry", "conifold", "--chamber", str(n), "--degree", "7",
         "--engines", "all"]
        for n in range(4)
    ]
    for L, shift, degree in ((2, 3, 6), (3, 2, 5), (4, 1, 4)):
        for _, rho, theta in shifted_chamber_data(L, shift):
            chamber = json.dumps({"L": L, "rho": list(rho), "theta": list(theta)})
            calls.append(
                ["enumerate", "--geometry", "general", "--chamber", chamber,
                 "--degree", str(degree), "--engines", "all"]
            )
    assert len(calls) > 240
    results = assert_reports_match_the_oracle(monkeypatch, capsys, calls)
    assert {code for code, _ in results} == {0}


def test_verify_and_spectral_reports_match_the_oracle(monkeypatch, capsys):
    verify = ["verify", "--degree", "4", "--chamber", "1", "--format", "json"]
    spectral = [
        ["spectral", "--check", "mirror"],
        ["spectral", "--check", "s3", "--trials", "2"],
        ["spectral", "--check", "spp-limit", "--trials", "2"],
        ["spectral", "--check", "spp-identity", "--chamber", "1", "--degree", "3"],
    ]
    results = assert_reports_match_the_oracle(monkeypatch, capsys, [verify] + spectral)
    assert [code for code, _ in results] == [0] * 5
    # a counterexample in the battery, and failed trials carrying a permutation tuple
    faulty = functools.partial(verify_all, fault=(6, (1,)))
    monkeypatch.setattr(verify_module, "verify_all", faulty)

    class Failed:
        permutation = (2, 0, 1)

        def __bool__(self):
            return False

    monkeypatch.setattr(spectral_module, "s3_equivariance_check", lambda params: Failed())
    (code, battery), (s3_code, s3) = assert_reports_match_the_oracle(
        monkeypatch, capsys, [verify, spectral[1]]
    )
    assert (code, s3_code) == (1, 1)
    assert [r["name"] for r in battery["results"] if r["counterexamples"]] == [
        battery["results"][5]["name"]
    ]
    assert [f["permutation"] for f in s3["failures"]] == [(2, 0, 1)] * 3


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_disagreement_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(engines_module, "chamber_product", lambda s, d: TruncatedSeries.one(1, d))
    code, out, _ = run_cli(
        capsys, "enumerate", "--geometry", "c3", "--degree", "3",
        "--engines", "enumerate,product",
    )
    assert code == 1
    report = json.loads(out)
    assert report["agreement"] is False
    assert any(not p["equal"] for p in report["pairwise"])


def test_internal_limit_exits_3(monkeypatch, capsys):
    def boom(f, degree, size):
        raise StabilizationFailureError("forced for the exit-code contract")

    monkeypatch.setattr(engines_module, "stabilized_toeplitz", boom)
    code, out, err = run_cli(capsys, "toeplitz", "--geometry", "c3", "--degree", "2")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "StabilizationFailureError"


def test_spectral_mirror_values(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--check", "mirror")
    assert code == 0
    report = json.loads(out)
    assert report["coefficients"] == {
        "Q1": "119/828",
        "Q2": "115/612",
        "Q3": "216/391",
    }


def test_spectral_s3_and_limit(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--check", "s3", "--trials", "5")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run_cli(capsys, "spectral", "--check", "spp-limit", "--trials", "3")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_spectral_identity(capsys):
    code, out, _ = run_cli(
        capsys, "spectral", "--check", "spp-identity", "--chamber", "1", "--degree", "3"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--degree", "2", "--chamber", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines[:10])
    assert lines[-1] == "all checks passed"

    code, out, _ = run_cli(
        capsys, "verify", "--degree", "2", "--chamber", "1", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["results"]) == 10


def test_verify_json_golden(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--degree", "8", "--chamber", "2", "--format", "json"
    )
    assert code == 0 and err == ""
    assert out == (GOLDEN / "verify_d8_n2.json").read_text(encoding="utf-8")


def test_console_script_is_wired():
    exe = shutil.which("crystalmelt")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run(
        [exe, "product", "--geometry", "c3", "--degree", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agreement"] is True


def test_module_entry_point_runs_without_warnings():
    # importing the package must not import crystalmelt.cli ahead of runpy,
    # which would warn on stderr under python -m crystalmelt.cli
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "crystalmelt.cli",
         "verify", "--degree", "2", "--chamber", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
