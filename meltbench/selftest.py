"""Self-test of the benchmark: python3 meltbench/selftest.py (from the checkout root).

1. The metric names and units in run.py match BENCHMARK.json.
2. The reference check passes the real output of a job, ignores a changed
   ``stabilized_at``, and fails a report with one coefficient flipped, a
   battery report with one verdict flipped, and a non-zero exit code. A pass
   whose CLI output has one coefficient flipped reports that job as failed.
3. Two traced runs of each workload, in fresh processes with different hash
   seeds, give identical exact counts.

Exits 1 if any of these fails.
"""

import json
import os
import subprocess
import sys

import run
from reference import check_output, load_reference, run_cli
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, build_jobs, import_crystalmelt

DETERMINISTIC = (
    "series.mul.calls",
    "series.mul.pairs",
    "series.det.order_sum",
    "matrixmodel.toeplitz.sizes_tried",
    "lgv.graph.edges",
    "enumeration.terms_out",
)
TOEPLITZ_JOB = "toeplitz-theta2-d10-toeplitz+product"
BATTERY_JOB = "verify-d12-n2"


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        expect(listed == list(ours), f"{key} in BENCHMARK.json differs from run.py")


def _flip_first_coefficient(text, engine):
    report = json.loads(text)
    term = report["engines"][engine]["series"]["terms"][0]
    term["coef"] = str(int(term["coef"]) + 1)
    return json.dumps(report)


def check_reference(package):
    reference = load_reference()
    jobs = {label: argv for w in WORKLOADS for label, argv in build_jobs(w, DEFAULT_SEED)}
    code, text = run_cli(package.cli.main, jobs[TOEPLITZ_JOB])
    expect(check_output(reference, TOEPLITZ_JOB, code, text) == [], "real output rejected")

    report = json.loads(text)
    report["engines"]["toeplitz"]["stabilized_at"] += 1
    moved = json.dumps(report)
    expect(check_output(reference, TOEPLITZ_JOB, 0, moved) == [], "stabilized_at was checked")

    flipped = _flip_first_coefficient(text, "toeplitz")
    expect(check_output(reference, TOEPLITZ_JOB, 0, flipped), "flipped coefficient passed")
    expect(check_output(reference, TOEPLITZ_JOB, 1, text), "exit code 1 passed")

    code, text = run_cli(package.cli.main, jobs[BATTERY_JOB])
    expect(check_output(reference, BATTERY_JOB, code, text) == [], "real battery rejected")
    report = json.loads(text)
    report["results"][0]["passed"] = False
    expect(check_output(reference, BATTERY_JOB, 0, json.dumps(report)), "flipped verdict passed")

    real_main = package.cli.main

    def flipping_main(argv):
        code, text = run_cli(real_main, argv)
        sys.stdout.write(_flip_first_coefficient(text, "product"))
        return code

    package.cli.main = flipping_main
    try:
        _, failures = run.run_pass(package, [(TOEPLITZ_JOB, jobs[TOEPLITZ_JOB])], reference)
    finally:
        package.cli.main = real_main
    expect(len(failures) == 1, f"flipped pass gave {failures}")


def _traced_counts(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    argv = [sys.executable, str(ROOT / "meltbench" / "run.py"), "--workload", workload,
            "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    expect(result["correct"], f"traced {workload} run failed its reference check")
    return {name: result["metrics"][name]["value"] for name in DETERMINISTIC}


def check_determinism():
    for workload in WORKLOADS:
        first, second = _traced_counts(workload, 1), _traced_counts(workload, 2)
        expect(first == second, f"{workload}: {first} != {second}")
        print(f"  {workload}: {first}")


def main():
    package = import_crystalmelt()
    failed = False
    for name, check in (
        ("metric names", check_metric_names),
        ("reference check", lambda: check_reference(package)),
        ("determinism", check_determinism),
    ):
        try:
            check()
        except AssertionError as exc:
            failed = True
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
