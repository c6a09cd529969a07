"""Names the package exports and names the benchmark patches stay resolvable."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import molseq

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["molseq"] + [f"molseq.{m.name}" for m in pkgutil.iter_modules(molseq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_benchmark_selftest_passes():
    # The tracer looks up every name it patches, so a rename or deletion in
    # src/ that the traced benchmark depends on fails here.
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
