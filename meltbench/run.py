"""End-to-end benchmark of the crystalmelt CLI.

    python3 meltbench/run.py --workload battery|ladder|determinants \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. One single-threaded process drives every job
closed-loop through ``crystalmelt.cli.main(argv)``: a job starts when the
previous one returns. A pass runs the workload's jobs once, cold: the sweep's
``lru_cache`` memos are cleared first, as a fresh CLI process would find them.
Passes repeat until the next one would end after ``--seconds``.

Every job's exit code and output are checked against ``reference.json``.
The last line of stdout is one JSON object. With ``--trace 0`` its metrics are
the end-to-end ones (median pass wall time, median set-up time over several
fresh interpreters, peak RSS, share of jobs that passed). With ``--trace 1``
untraced and traced passes alternate, and the metrics are the per-layer self
times and counts of the traced passes plus the tracing overhead. Each run also
writes a summary (and, traced, the spans of its first traced pass) under
``.meltbench-out/`` in the checkout.

Exits 2 without a result when the checkout has no crystalmelt sources.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import check_output, load_reference, run_cli
from tracer import Tracer, write_spans
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, build_jobs, import_crystalmelt

OUT_DIR = ROOT / ".meltbench-out"
SETUP_PROBES = 15
MIN_UNTRACED_PASSES = 3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("pass_frac", "ratio"))
LAYER_TIMES = (
    "series.mul",
    "series.det",
    "series.invert",
    "matrixmodel.symbol",
    "matrixmodel.toeplitz",
    "matrixmodel.prefactor",
    "lgv.graph",
    "lgv.path_matrix",
    "lgv.bruteforce",
    "lgv.bijection",
    "enumeration",
    "enumeration.c3",
    "enumeration.theta0",
    "enumeration.theta1",
    "enumeration.theta2",
    "enumeration.theta3",
    "products",
    "spectral",
    "cli",
    "serialize",
)
EXACT_COUNTS = (
    "series.mul.calls",
    "series.mul.pairs",
    "series.det.calls",
    "series.det.order_sum",
    "series.invert.calls",
    "matrixmodel.toeplitz.calls",
    "matrixmodel.toeplitz.sizes_tried",
    "lgv.graph.edges",
    "enumeration.calls",
    "enumeration.terms_out",
    "products.calls",
    "products.factors",
)
PER_LAYER = (
    tuple((f"{layer}.self_s", "s") for layer in LAYER_TIMES)
    + tuple((name, "count") for name in EXACT_COUNTS)
    + (("trace.overhead_frac", "ratio"),)
)


def environment():
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _commit():
    """HEAD of the checkout's own .git, read as files; "unknown" without one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return "unknown"


def _clear_caches(package):
    prefix = package.__name__ + "."
    for name, mod in list(sys.modules.items()):
        if name.startswith(prefix):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_pass(package, jobs, reference, tracer=None):
    """One cold pass over the jobs; returns (wall seconds, one reason per failed job)."""
    _clear_caches(package)
    gc.collect()
    main = package.cli.main
    results = []
    start = perf_counter()
    for label, argv in jobs:
        if tracer is not None:
            tracer.job = label
        try:
            code, text = run_cli(main, argv)
        except Exception:
            traceback.print_exc()
            code, text = "exception", ""
        results.append((label, code, text))
    wall = perf_counter() - start
    failures = []
    for label, code, text in results:
        reasons = check_output(reference, label, code, text)
        if reasons:
            failures.append("; ".join(reasons))
    return wall, failures


def measure_setup(workload, seed):
    """Median time from interpreter start to crystalmelt imported and jobs built."""
    probe = [sys.executable, str(Path(__file__).with_name("workloads.py")), workload, str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        start = perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i:  # the first probe may still be writing bytecode caches
            times.append(elapsed)
    return statistics.median(times)


def _run_untraced(package, jobs, reference, seconds):
    walls, failures, attempted = [], [], 0
    start = perf_counter()
    while True:
        wall, fails = run_pass(package, jobs, reference)
        walls.append(wall)
        failures += fails
        attempted += len(jobs)
        elapsed = perf_counter() - start
        if len(walls) >= MIN_UNTRACED_PASSES and elapsed + statistics.median(walls) > seconds:
            return walls, failures, attempted


def _run_traced(package, jobs, reference, seconds):
    """Alternate untraced and traced passes.

    Returns the per-layer metrics, the failures, the number of jobs attempted,
    a summary for the run's output file and the first traced pass's spans.
    """
    tracer = Tracer()
    plain, traced, layer_runs = [], [], []
    failures, attempted, first_spans, counts = [], 0, None, None
    start = perf_counter()
    while True:
        wall, fails = run_pass(package, jobs, reference)
        plain.append(wall)
        failures += fails
        tracer.reset()
        tracer.install(package)
        try:
            wall, fails = run_pass(package, jobs, reference, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        failures += fails
        attempted += 2 * len(jobs)
        layer_runs.append(tracer.layer_times())
        if first_spans is None:
            first_spans, counts = tracer.spans, dict(tracer.counts)
        elapsed = perf_counter() - start
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    layers = sorted({layer for run in layer_runs for layer in run} | set(LAYER_TIMES))
    self_s = {k: statistics.median(run.get(k, 0.0) for run in layer_runs) for k in layers}
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYER_TIMES}
    metrics.update((name, counts.get(name, 0)) for name in EXACT_COUNTS)
    plain_wall = statistics.median(plain)
    metrics["trace.overhead_frac"] = (statistics.median(traced) - plain_wall) / plain_wall
    summary = {
        "untraced_walls": plain,
        "traced_walls": traced,
        "layer_self_s": self_s,
        "spans_in_first_traced_pass": len(first_spans),
    }
    return metrics, failures, attempted, summary, first_spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        package = import_crystalmelt()
    except ImportError as exc:
        print(f"meltbench: cannot import crystalmelt from this checkout: {exc}", file=sys.stderr)
        return 2
    jobs = build_jobs(args.workload, args.seed)
    reference = load_reference()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **environment()}

    if args.trace:
        metrics, failures, attempted, summary, spans = _run_traced(
            package, jobs, reference, args.seconds
        )
    else:
        setup = measure_setup(args.workload, args.seed)
        walls, failures, attempted = _run_untraced(package, jobs, reference, args.seconds)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": (attempted - len(failures)) / attempted,
        }
        summary = {"walls": walls}

    for reason in failures:
        print(f"meltbench: FAILED {reason}", file=sys.stderr)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary.update(info, jobs=[label for label, _ in jobs], failures=failures, result=result)
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if args.trace:
        write_spans(stem.with_suffix(".spans.tsv"), spans)
    print(json.dumps({"meltbench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
