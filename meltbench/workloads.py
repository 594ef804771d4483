"""Job lists for the three benchmark workloads.

A job is a (label, argv) pair; argv goes to ``crystalmelt.cli.main`` and the
label keys the job's entry in ``reference.json``. The seed is the benchmark's
argument: ``battery`` passes it to ``verify --seed``, the other workloads use
it only to shuffle their job order.

Run as a script (``python3 meltbench/workloads.py <workload> <seed>``) this
file is the set-up probe: it starts an interpreter, imports crystalmelt from
the checkout's ``src``, builds the job list and prints ``ready``.
"""

import random
import sys
from pathlib import Path

DEFAULT_SEED = 1729  # crystalmelt.verify.DEFAULT_SEED
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_LADDER = (
    ("c3", None, 22),
    ("conifold", 0, 12),
    ("conifold", 1, 12),
    ("conifold", 2, 10),
    ("conifold", 3, 8),
)


def _engine_job(command, geometry, chamber, degree, engines):
    name = "c3" if geometry == "c3" else f"theta{chamber}"
    argv = [command, "--geometry", geometry]
    if chamber is not None:
        argv += ["--chamber", str(chamber)]
    argv += ["--degree", str(degree), "--engines", engines]
    return f"{command}-{name}-d{degree}-{engines.replace(',', '+')}", argv


def build_jobs(workload, seed):
    """The workload's jobs, in the order the seed gives them."""
    if workload == "battery":
        argv = ["verify", "--degree", "12", "--chamber", "2", "--format", "json"]
        return [("verify-d12-n2", argv + ["--seed", str(seed)])]
    if workload == "ladder":
        jobs = [
            _engine_job("enumerate", g, n, d, "enumerate,product") for g, n, d in _LADDER
        ]
    elif workload == "determinants":
        jobs = [
            _engine_job("toeplitz", "c3", None, 12, "all"),
            _engine_job("lgv", "conifold", 0, 8, "all"),
            _engine_job("toeplitz", "conifold", 1, 10, "toeplitz,product"),
            _engine_job("toeplitz", "conifold", 2, 10, "toeplitz,product"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(jobs)
    return jobs


WORKLOADS = ("battery", "ladder", "determinants")


def import_crystalmelt():
    """Import crystalmelt from this checkout's src, never from elsewhere."""
    if not (SRC / "crystalmelt" / "__init__.py").is_file():
        raise ImportError(f"no crystalmelt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crystalmelt.cli

    if Path(crystalmelt.__file__).resolve().parent != SRC / "crystalmelt":
        raise ImportError(f"crystalmelt was imported from {crystalmelt.__file__}")
    return crystalmelt


if __name__ == "__main__":
    import_crystalmelt()
    build_jobs(sys.argv[1], int(sys.argv[2]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
