"""Reference check of job outputs against digests taken at the seed commit.

For an engine subcommand the digest covers each engine's series (variables,
cutoff and coefficients) and nothing else, so extras such as
``stabilized_at`` may change without failing the check. ``verify`` prints no
series; its digest covers the check names and their verdicts, since the
detail strings quote ``stabilized_at`` too.

Run as a script (``python3 meltbench/reference.py``) this file recomputes
``reference.json`` from the current code; do that only on a commit whose
outputs are known to be right.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def run_cli(cli_main, argv):
    """Run one CLI job in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def output_digests(stdout_text):
    """Digest per engine of one job's report ({"verify": ...} for the battery)."""
    report = json.loads(stdout_text)
    if "engines" in report:
        return {name: _digest(entry["series"]) for name, entry in report["engines"].items()}
    return {"verify": _digest([[r["name"], r["passed"]] for r in report["results"]])}


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())["jobs"]


def check_output(reference, label, code, stdout_text):
    """Reasons this job's result is wrong; empty when it matches the reference."""
    if code != 0:
        return [f"{label}: exit code {code}"]
    expected = reference.get(label)
    if expected is None:
        return [f"{label}: no reference digest"]
    try:
        got = output_digests(stdout_text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{label}: unreadable report ({exc!r})"]
    return [
        f"{label}: {engine} digest differs from the reference"
        for engine in sorted(set(expected) | set(got))
        if expected.get(engine) != got.get(engine)
    ]


def main():
    from run import environment
    from workloads import DEFAULT_SEED, WORKLOADS, build_jobs, import_crystalmelt

    cli = import_crystalmelt().cli
    jobs = {}
    for workload in WORKLOADS:
        for label, argv in build_jobs(workload, DEFAULT_SEED):
            code, text = run_cli(cli.main, argv)
            if code != 0:
                raise SystemExit(f"{label} exited {code}; not writing a reference")
            jobs[label] = output_digests(text)
    payload = {"commit": environment()["commit"], "jobs": jobs}
    REFERENCE_PATH.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    main()
