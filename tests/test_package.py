"""Names the package exports and names the benchmark patches, calls and reads stay resolvable."""

import ast
import dataclasses
import importlib
import inspect
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


def test_package_exports_only_its_modules():
    # Every function and class is imported from its module, as in
    # ``from molseq import train``; the package re-exports none of them.
    assert molseq.__all__ == ["autodiff", "data", "files", "losses", "metrics", "model", "smiles", "train",
                              "__version__"]


# The layers of src/molseq, lowest first: a module imports from the layers below its own and from no other.
LAYERS = [("errors",), ("autodiff", "smiles"), ("model",), ("files",), ("data",), ("losses", "metrics"), ("train",),
          ("cli",)]


def test_imports_run_down_the_layers():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    edges = set()
    for path in (ROOT / "src" / "molseq").glob("*.py"):
        if path.stem == "__init__":
            continue
        assert path.stem in layer, f"{path.name} is in no layer"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:  # from .x import ... / from . import x
                targets = [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]
                edges |= {(path.stem, target) for target in targets}
    assert {("data", "files"), ("files", "model"), ("train", "files"), ("cli", "files")} <= edges
    assert sorted((a, b) for a, b in edges if layer[b] >= layer[a]) == []

# What perfbench/worker.py reads from molseq's results and passes it by
# keyword, beside the calls above; a rename passes every other test and then
# fails every benchmark run.
BENCHMARK_FIELDS = [  # dataclass fields
    ("molseq.train", "PipelineResult", ("warmup", "pretrain", "finetune")),
    ("molseq.train", "StageResult", ("loss_log",)),
    ("molseq.metrics", "RetrievalResult", ("average_precisions", "cmc", "rank1", "rank5", "rank10", "map")),
    ("molseq.data", "Sample", ("sample_id", "drug_id", "smiles", "drug_label", "moa_label", "frames")),
]
BENCHMARK_MEMBERS = [  # methods and properties
    ("molseq.train", "StageResult", ("final", "loss_csv")),
    ("molseq.model", "ParameterSet", ("items",)),
    ("molseq.model", "Parameter", ("value",)),
]
BENCHMARK_KEYWORDS = [
    ("molseq.data", "SyntheticSpec",
     ("num_moas", "drugs_per_moa", "samples_per_drug", "T", "f", "seed", "separability", "confounding")),
    ("molseq.train", "TrainConfig", ("epochs", "seed", "eval_every")),
    ("molseq.model", "ModelConfig", ("vocab_size", "frame_dim", "num_classes", "embed_dim", "seed", "include_molecule")),
    ("molseq.data", "prepare_split", ("ratio", "seed")),
]


def _each(table):
    return [pytest.param(module, owner, name, id=f"{owner}.{name}")
            for module, owner, names in table for name in names]


@pytest.mark.parametrize("module, owner, name", _each(BENCHMARK_FIELDS))
def test_benchmark_fields_resolve(module, owner, name):
    cls = getattr(importlib.import_module(module), owner)
    assert name in {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("module, owner, name", _each(BENCHMARK_MEMBERS))
def test_benchmark_members_resolve(module, owner, name):
    member = inspect.getattr_static(getattr(importlib.import_module(module), owner), name)
    assert isinstance(member, property) or callable(member)


@pytest.mark.parametrize("module, owner, name", _each(BENCHMARK_KEYWORDS))
def test_benchmark_keywords_resolve(module, owner, name):
    parameter = inspect.signature(getattr(importlib.import_module(module), owner)).parameters.get(name)
    assert parameter is not None and parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)


def test_benchmark_metric_keys_exist():
    # The worker checks final["accuracy"], final["rank1"] and final["map"].
    from molseq import train

    assert {"accuracy", "rank1", "map"} <= set(train.METRIC_COLUMNS)
