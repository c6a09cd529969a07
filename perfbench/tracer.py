"""Span recorder that times molseq's layers from outside the package.

A ``Tracer`` patches public molseq functions where they are looked up at
call time (module globals such as ``molseq.train.similarity`` or
``molseq.autodiff.matmul``, and encoder methods on their classes), records
one span per call, and puts every original back on ``restore()``.  Nothing
under ``src/`` knows about it, and an untraced run patches nothing.

Spans live in compact in-memory arrays (name, start, end, parent, root,
step) and are written once, when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np

# Autodiff ops reported as per-layer metrics: the ones the workloads build.
# Every op in ``molseq.autodiff.__all__`` is traced; unused ones still land
# in the span file.
REPORTED_OPS = (
    "constant", "matmul", "add", "sub", "mul", "relu", "tanh", "row_log_softmax",
    "sum_", "mean", "l2_normalize_rows", "pairwise_sq_dists", "gather_rows", "scale",
    "transpose",
)
NOT_OPS = {"Tensor", "backward", "reset_graph", "finite_difference_check"}

# Names in molseq.train mapped to their span names.  The train module
# imported these functions by name from the loss, metrics, model and smiles
# layers, so they are patched in its namespace, where run_stage looks them up.
TRAIN_CALLS = {
    "build_supervision": "losses.build_supervision",
    "similarity": "losses.similarity",
    "msc_loss": "losses.msc_loss",
    "hard_triplet_loss": "losses.hard_triplet_loss",
    "center_loss": "losses.center_loss",
    "classification_ce": "losses.classification_ce",
    "total_loss": "losses.total_loss",
    "accuracy": "metrics.accuracy",
    "pool_frames": "model.pool_frames",
    "token_count_matrix": "model.token_count_matrix",
    "build_vocabulary": "smiles.build_vocabulary",
    "encode_tokens": "smiles.encode_tokens",
    "sgd_step": "train.sgd_step",
}
METHODS = {
    ("SequenceEncoder", "forward"): "model.sequence_forward",
    ("MoleculeEncoder", "forward_counts"): "model.molecule_forward",
    ("ClassifierHead", "forward"): "model.head_forward",
    ("ParameterSet", "as_leaves"): "model.as_leaves",
}

PASS = "bench.pass"
SETUP = "bench.setup"


class Tracer:
    """Records spans; ``install()`` patches molseq, ``restore()`` undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self.step = array("i")
        self._stack: list[int] = []
        self._step = -1
        self._next_step = 0
        self._patched: list[tuple[object, str, object]] = []
        self.smiles_inputs: set[str] = set()
        self.ranked_bytes = 0

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else i)
        self.step.append(self._step)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the bench itself, around a block."""
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def timed(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced molseq name; call ``restore()`` when done."""
        from molseq import autodiff, cli, data, metrics, model, train

        for op in autodiff.__all__:
            if op not in NOT_OPS:
                self.patch(autodiff, op, self._op(op, getattr(autodiff, op)))
        self.patch(autodiff, "backward", self.timed("autodiff.backward", autodiff.backward))
        for attr, name in TRAIN_CALLS.items():
            self.patch(train, attr, self.timed(name, getattr(train, attr)))
        self.patch(train, "run_stage", self._run_stage(train.run_stage))
        self.patch(train, "pk_sample_indices", self._step_begin(train.pk_sample_indices))
        self.patch(train, "update_centers", self._step_end(train.update_centers))
        self.patch(train, "evaluate_retrieval", self._evaluate(train.evaluate_retrieval))
        for (cls, attr), name in METHODS.items():
            owner = getattr(model, cls)
            self.patch(owner, attr, self.timed(name, getattr(owner, attr)))
        self.patch(metrics, "rank_gallery", self.timed("metrics.rank_gallery", metrics.rank_gallery))
        self.patch(metrics, "evaluate_retrieval", self._evaluate(metrics.evaluate_retrieval))
        canonical = self._canonical(data.canonical_smiles)
        self.patch(data, "canonical_smiles", canonical)
        self.patch(cli, "canonical_smiles", canonical)
        for attr in ("load_manifest", "generate_synthetic", "write_dataset"):
            self.patch(data, attr, self.timed(f"data.{attr}", getattr(data, attr)))
        self.patch(cli, "main", self.timed("cli.main", cli.main))

    def _op(self, op: str, fn):
        fwd = self.name_id(f"autodiff.{op}.fwd")
        bwd = self.name_id(f"autodiff.{op}.bwd")
        open_, close = self.open, self.close

        def timed_backward(backward_fn):
            def traced_backward(grad):
                i = open_(bwd)
                try:
                    return backward_fn(grad)
                finally:
                    close(i)
            return traced_backward

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            if out._backward_fn is not None:
                out._backward_fn = timed_backward(out._backward_fn)
            return out

        return traced

    def _run_stage(self, fn):
        ids = {s: self.name_id(f"train.run_stage.{s}") for s in ("warmup", "pretrain", "finetune")}

        @functools.wraps(fn)
        def traced(config, *args, **kwargs):
            if config.stage == "finetune_moa":
                stage = "finetune"
            else:
                stage = "pretrain" if config.use_molecule_branch else "warmup"
            i = self.open(ids[stage])
            try:
                return fn(config, *args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _step_begin(self, fn):
        """A training step starts with its PK batch draw."""
        nid = self.name_id("data.pk_sample_indices")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._step = self._next_step
            self._next_step += 1
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _step_end(self, fn):
        """A training step ends with the center update."""
        inner = self.timed("losses.update_centers", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                self._step = -1

        return traced

    def _evaluate(self, fn):
        inner = self.timed("metrics.evaluate_retrieval", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            ranked = getattr(result, "ranked_indices", None) or ()
            self.ranked_bytes = max(self.ranked_bytes, sum(int(a.nbytes) for a in ranked))
            return result

        return traced

    def _canonical(self, fn):
        inner = self.timed("smiles.canonical_smiles", fn)

        @functools.wraps(fn)
        def traced(smiles):
            self.smiles_inputs.add(smiles)
            return inner(smiles)

        return traced

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "root": np.frombuffer(self.root, dtype=np.int32).copy(),
            "step": np.frombuffer(self.step, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())



def span_totals(spans: dict[str, np.ndarray], root_name: str) -> dict:
    """Aggregate the spans whose root span is named ``root_name``.

    Returns ``{"roots": n, "root_s": seconds, "self_s": seconds, "steps": n,
    "step_s": seconds, "open": n, "by_name": {name: (calls, inclusive_s,
    self_s, calls_inside_steps)}}``.
    """
    names = list(spans["names"])
    name, parent, root = spans["name"], spans["parent"], spans["root"]
    dur = spans["end"] - spans["start"]
    n = dur.size
    open_spans = int(np.count_nonzero(spans["end"] == 0.0))
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    if root_name not in names:
        return {"roots": 0, "root_s": 0.0, "self_s": 0.0, "steps": 0, "step_s": 0.0,
                "open": open_spans, "by_name": {}}
    rid = names.index(root_name)
    keep = name[root] == rid
    nk = name[keep]
    calls = np.bincount(nk, minlength=len(names))
    incl = np.bincount(nk, weights=dur[keep], minlength=len(names))
    excl = np.bincount(nk, weights=self_t[keep], minlength=len(names))
    # A step runs from its first span's start to its last span's end.
    step = spans["step"][keep]
    in_step = step >= 0
    step_calls = np.bincount(nk[in_step], minlength=len(names))
    by_name = {names[i]: (int(calls[i]), float(incl[i]), float(excl[i]), int(step_calls[i]))
               for i in range(len(names)) if calls[i]}
    step_s = 0.0
    steps = 0
    if in_step.any():
        sids, inv = np.unique(step[in_step], return_inverse=True)
        first = np.full(sids.size, np.inf)
        last = np.full(sids.size, -np.inf)
        np.minimum.at(first, inv, spans["start"][keep][in_step])
        np.maximum.at(last, inv, spans["end"][keep][in_step])
        step_s = float((last - first).sum())
        steps = int(sids.size)
    return {
        "roots": int(calls[rid]),
        "root_s": float(incl[rid]),
        "self_s": float(excl.sum()),
        "steps": steps,
        "step_s": step_s,
        "open": open_spans,
        "by_name": by_name,
    }
