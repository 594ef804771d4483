"""What importing the package and the command line loads, and the lazy exports."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import crystalmelt

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code):
    """Run code in a fresh interpreter that imports crystalmelt from this
    checkout; returns what it printed on stderr, read as a Python literal."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stderr)


LOADED = (
    "import sys\n"
    "bare = set(sys.modules)\n"
    "{}\n"
    "sys.stderr.write(repr(sorted(set(sys.modules) - bare)))\n"
)


def test_importing_the_cli_loads_no_engine():
    added = set(run_python(LOADED.format("import crystalmelt.cli")))
    ours = {name for name in added if name.split(".")[0] == "crystalmelt"}
    assert ours == {"crystalmelt", "crystalmelt.cli", "crystalmelt.errors"}
    assert not added & {"fractions", "dataclasses", "random"}


def test_a_product_run_loads_neither_verify_nor_spectral():
    run = "from crystalmelt.cli import main\nassert main(['product', '--degree', '3']) == 0"
    added = set(run_python(LOADED.format(run)))
    assert {"crystalmelt.engines", "crystalmelt.products", "crystalmelt.serialize"} <= added
    assert not added & {"crystalmelt.verify", "crystalmelt.spectral"}


def test_every_export_is_its_modules_own_object():
    names = set(crystalmelt.__all__) | {"wall_factor"}
    assert set(crystalmelt._EXPORTS) == names
    for name, module in crystalmelt._EXPORTS.items():
        assert getattr(crystalmelt, name) is getattr(import_module(f"crystalmelt.{module}"), name)
    assert names <= set(dir(crystalmelt))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from crystalmelt import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(crystalmelt.__all__)


def test_a_submodule_is_imported_through_the_package():
    code = (
        "import sys\n"
        "import crystalmelt\n"
        "before = 'crystalmelt.engines' in sys.modules\n"
        "from crystalmelt import engines\n"
        "sys.stderr.write(repr((before, engines is sys.modules['crystalmelt.engines'])))\n"
    )
    assert run_python(code) == (False, True)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'crystalmelt' has no attribute 'nope'$"):
        crystalmelt.nope
    assert not hasattr(crystalmelt, "nope")
    with pytest.raises(ImportError):
        exec("from crystalmelt import nope", {})
