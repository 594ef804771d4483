"""Each demo script prints exactly its golden output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden")
DEMOS = ("wall_crossing", "determinant_stabilization", "walker_paths", "spectral_rationals")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_golden(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"demo_{name}.txt").read_bytes()
