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


# Names perfbench/worker.py calls outside the tracer's patches; losing one
# turns every benchmark run into a failure.
BENCHMARK_CALLS = [
    ("molseq.model", "Model.sequence_embeddings"),
    ("molseq.smiles", "parse"),
    ("molseq.smiles", "random_smiles"),
    ("molseq.data", "load_smiles_pool"),
    ("molseq.data", "generate_synthetic"),
    ("molseq.data", "write_dataset"),
    ("molseq.data", "load_manifest"),
    ("molseq.metrics", "evaluate_retrieval"),
    ("molseq.data", "SyntheticSpec"),
    ("molseq.data", "prepare_split"),
    ("molseq.train", "TrainConfig"),
    ("molseq.train", "run_pipeline"),
    ("molseq.model", "Model"),
    ("molseq.model", "ModelConfig"),
]


@pytest.mark.parametrize("module, path", BENCHMARK_CALLS)
def test_benchmark_calls_resolve(module, path):
    target = importlib.import_module(module)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)


def test_autodiff_ships_only_the_ops_src_builds_from():
    # Reference-only primitives live in tests/reference.py, not in the package.
    from molseq import autodiff

    assert autodiff.__all__ == [
        "Tensor", "constant", "matmul", "add", "relu", "tanh", "sum_", "linear", "cosine_logits",
        "soft_target_ce", "batch_hard_triplet", "half_sq_error", "weighted_sum", "backward",
        "finite_difference_check",
    ]
