"""Packaging: the import graph stays light and the version has one source.

Each import case runs in a fresh interpreter, because ``sys.modules``
in the test process already holds whatever earlier tests imported.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def loaded_after(statement: str, probes):
    """Which of ``probes`` are in ``sys.modules`` after ``statement``."""
    code = (
        "import json, sys\n"
        f"{statement}\n"
        f"print(json.dumps([m for m in {list(probes)!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout)


def test_memory_core_imports_no_upper_layer_or_numpy():
    heavy = ["numpy", "networkx", "repro.workloads", "repro.harness"]
    assert loaded_after("import repro.core", heavy) == []


def test_cli_imports_no_networkx():
    assert loaded_after("import repro.cli", ["networkx"]) == []


def test_every_public_name_resolves():
    statement = (
        "import repro\n"
        "missing = [n for n in repro.__all__ if not hasattr(repro, n)]\n"
        "assert not missing, missing"
    )
    assert loaded_after(statement, []) == []


def test_unknown_name_raises_attribute_error():
    statement = (
        "import repro\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('repro.no_such_name resolved')"
    )
    assert loaded_after(statement, []) == []


def test_pyproject_takes_the_version_from_the_package():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    dynamic = project["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}
