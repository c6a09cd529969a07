"""One benchmark workload, run in its own process by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The worker imports molseq from the checkout's ``src/`` and sets the
workload up several times: ``setup_s`` is the median time a fresh
interpreter takes to import numpy and molseq plus the median set-up.  Then
it runs passes of the workload back to back, one caller in a closed
loop, until ``--seconds`` have passed and at least ``min_passes`` ran.
Every pass is checked; the checks run outside the timed region.  The last
line of standard output is the JSON result.

With ``--trace 1`` untraced and traced passes alternate on the same
inputs: the traced ones give the per-layer metrics, and the ratio of the
two medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Checks:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)


class Workload:
    """One kind of pass; subclasses set it up, run it and check its output."""

    name = ""
    min_passes = 3

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out, checks: Checks) -> None:
        raise NotImplementedError

    def finish(self, checks: Checks) -> None:
        """Checks that run once, after the timed passes and the memory reading."""

    def quality(self, checks: Checks) -> float:
        raise NotImplementedError

    def report(self) -> dict:
        return {}


class TrainPipeline(Workload):
    """``run_pipeline`` (warmup, pretrain, finetune) on the acceptance spec.

    Passes cycle over ``DATASETS`` synthetic datasets drawn from the seed,
    so the quality metric averages over several datasets; a later pass on
    the same dataset must reproduce the earlier loss logs bit for bit.
    """

    name = "train_pipeline"
    DATASETS = 6
    EPOCHS = 100
    EVAL_EVERY = 20
    THRESHOLD = 0.90  # finetune accuracy and rank1, as in the acceptance suite
    min_passes = DATASETS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = [seed + 1000 * k for k in range(self.DATASETS)]
        self.digests: dict[int, str] = {}
        self.drug_map: dict[int, float] = {}

    def setup(self) -> None:
        from dataclasses import replace

        from molseq import data, train

        self.splits, self.configs = [], []
        for s in self.seeds:
            spec = data.SyntheticSpec(num_moas=4, drugs_per_moa=3, samples_per_drug=40, T=16, f=32,
                                      seed=s, separability=2.5, confounding=0.2)
            self.splits.append(data.prepare_split(data.generate_synthetic(spec), ratio=0.8, seed=s))
            self.configs.append(train.TrainConfig(epochs=self.EPOCHS, seed=s, eval_every=self.EVAL_EVERY))
        train.run_pipeline(self.splits[0], replace(self.configs[0], epochs=1))

    def run(self, i: int):
        from molseq import train

        k = i % self.DATASETS
        return train.run_pipeline(self.splits[k], self.configs[k])

    def check(self, i: int, result, checks: Checks) -> None:
        k = i % self.DATASETS
        notes = []
        stages = (result.warmup, result.pretrain, result.finetune)
        if not all(math.isfinite(v) for st in stages for row in st.loss_log
                   for key, v in row.items() if key != "step"):
            notes.append("non-finite loss")
        final = result.finetune.final
        if final["accuracy"] < self.THRESHOLD or final["rank1"] < self.THRESHOLD:
            notes.append(f"finetune accuracy={final['accuracy']} rank1={final['rank1']}")
        digest = hashlib.sha256("".join(st.loss_csv() for st in stages).encode()).hexdigest()
        if self.digests.setdefault(k, digest) != digest:
            notes.append("loss log differs from an earlier pass on the same dataset")
        self.drug_map.setdefault(k, float(result.pretrain.final["map"]))
        checks.add(not notes, f"pass {i} (dataset seed {self.seeds[k]}): " + "; ".join(notes))

    def quality(self, checks: Checks) -> float:
        return statistics.fmean(self.drug_map.values())

    def report(self) -> dict:
        combined = hashlib.sha256("".join(self.digests[k] for k in sorted(self.digests)).encode())
        return {"dataset_seeds": self.seeds, "drug_map": [self.drug_map[k] for k in sorted(self.drug_map)],
                "loss_digest": combined.hexdigest()}


class RetrievalGallery(Workload):
    """Sequence-encoder inference plus ``evaluate_retrieval`` at Q=500, G=10,000."""

    name = "retrieval_gallery"
    CLASSES = 500          # one query per class
    PER_CLASS = 20         # gallery items per class
    FRAME_DIM = 32         # pooled features are 2 * FRAME_DIM wide
    EMBED_DIM = 64
    NOISE = 0.7            # within-class spread around unit-variance class centers
    TOLERANCE = 1e-12
    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.passes: list[tuple] = []

    def setup(self) -> None:
        import numpy as np

        from molseq import metrics, model

        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 23]))
        width = 2 * self.FRAME_DIM
        centers = rng.standard_normal((self.CLASSES, width))
        self.q_labels = np.arange(self.CLASSES)
        self.g_labels = rng.permutation(np.repeat(np.arange(self.CLASSES), self.PER_CLASS))
        self.q_pooled = centers + self.NOISE * rng.standard_normal((self.CLASSES, width))
        self.g_pooled = centers[self.g_labels] + self.NOISE * rng.standard_normal((self.g_labels.size, width))
        self.model = model.Model(model.ModelConfig(
            vocab_size=2, frame_dim=self.FRAME_DIM, num_classes=self.CLASSES,
            embed_dim=self.EMBED_DIM, seed=self.seed, include_molecule=False))
        warm = self.model.sequence_embeddings(self.g_pooled[:200])
        metrics.evaluate_retrieval(warm[:10], self.g_labels[:10], warm, self.g_labels[:200])

    def run(self, i: int):
        from molseq import metrics

        q_emb = self.model.sequence_embeddings(self.q_pooled)
        g_emb = self.model.sequence_embeddings(self.g_pooled)
        return q_emb, g_emb, metrics.evaluate_retrieval(q_emb, self.q_labels, g_emb, self.g_labels)

    def check(self, i: int, out, checks: Checks) -> None:
        q_emb, g_emb, result = out
        if not self.passes:
            self.embeddings = (q_emb, g_emb)
        same = all((a == b).all() for a, b in zip(self.embeddings, (q_emb, g_emb)))
        self.passes.append((same, result.average_precisions.copy(), result.cmc.copy(),
                            (result.rank1, result.rank5, result.rank10), result.map))

    def finish(self, checks: Checks) -> None:
        """Compare every pass with the oracle; runs after peak memory is read."""
        import numpy as np

        import oracle

        params = {n: p.value for n, p in self.model.params.items()}
        ref = [oracle.sequence_embeddings(x, params) for x in (self.q_pooled, self.g_pooled)]
        emb_err = max(float(np.abs(a - b).max()) for a, b in zip(ref, self.embeddings))
        aps, cmc = oracle.retrieval(ref[0], self.q_labels, ref[1], self.g_labels)
        ranks = (cmc[0], cmc[4], cmc[9])
        tol = self.TOLERANCE
        for i, (same, p_aps, p_cmc, p_ranks, p_map) in enumerate(self.passes):
            checks.add(same and emb_err <= tol,
                       f"pass {i}: embeddings differ from the oracle by {emb_err} or from pass 0")
            for qi, ok in enumerate(np.abs(p_aps - aps) <= tol):
                checks.add(ok, f"pass {i} query {qi}: AP {p_aps[qi]} vs oracle {aps[qi]}")
            agg_ok = (p_cmc.shape == cmc.shape and np.abs(p_cmc - cmc).max() <= tol
                      and all(abs(a - b) <= tol for a, b in zip(p_ranks, ranks))
                      and abs(p_map - aps.mean()) <= tol)
            checks.add(agg_ok, f"pass {i}: mAP/CMC/Rank-k differ from the oracle")

    def quality(self, checks: Checks) -> float:
        return float(self.passes[0][4])

    def report(self) -> dict:
        return {"queries": self.CLASSES, "gallery": self.CLASSES * self.PER_CLASS}


class ManifestIngest(Workload):
    """``load_manifest`` on 5,040 rows, then ``molseq canonicalize`` on 5,000 lines.

    The manifest repeats each of the 252 pool SMILES 20 times; the stream
    holds 5,000 distinct spellings, none of them a manifest string or a
    canonical form, so a cache keyed by the input string would help the
    first part and be bypassed by the second.
    """

    name = "manifest_ingest"
    MOAS, DRUGS_PER_MOA, SAMPLES_PER_DRUG = 21, 12, 20
    STREAM = 5000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dataset = workdir / "dataset"
        self.stream = workdir / "stream.smi"
        self.warm_dataset = workdir / "warm"
        self.warm_stream = workdir / "warm.smi"
        self.golden = dict(line.split("\t") for line in
                           (HERE / "pool_canonical.tsv").read_text().splitlines())

    def setup(self) -> None:
        import numpy as np

        from molseq import data, smiles

        spec = data.SyntheticSpec(num_moas=self.MOAS, drugs_per_moa=self.DRUGS_PER_MOA,
                                  samples_per_drug=self.SAMPLES_PER_DRUG, T=16, f=32,
                                  seed=self.seed, separability=2.5, confounding=0.2)
        samples = data.generate_synthetic(spec)
        data.write_dataset(samples, self.dataset)
        self.expected = [(s.sample_id, s.drug_id, self.golden[s.smiles], s.drug_label, s.moa_label, s.frames)
                         for s in samples]
        pool = data.load_smiles_pool()
        graphs = [smiles.parse(p) for p in pool]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 29]))
        seen = set(pool) | set(self.golden.values())
        lines, self.stream_expected = [], []
        while len(lines) < self.STREAM:
            j = int(rng.integers(len(pool)))
            spelling = smiles.random_smiles(graphs[j], rng)
            if spelling not in seen:
                seen.add(spelling)
                lines.append(spelling)
                self.stream_expected.append(self.golden[pool[j]])
        self.stream.write_text("\n".join(lines) + "\n")
        data.write_dataset(samples[:40], self.warm_dataset)
        self.warm_stream.write_text("\n".join(lines[:40]) + "\n")
        self._ingest(self.warm_dataset, self.warm_stream)

    @staticmethod
    def _ingest(dataset: Path, stream: Path):
        from molseq import cli, data

        rows = data.load_manifest(dataset)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["canonicalize", str(stream)])
        return rows, code, buf.getvalue()

    def run(self, i: int):
        return self._ingest(self.dataset, self.stream)

    def check(self, i: int, out, checks: Checks) -> None:
        rows, code, text = out
        checks.add(code == 0 and len(rows) == len(self.expected),
                   f"pass {i}: exit code {code}, {len(rows)} rows")
        for row, (sid, did, smi, dl, ml, frames) in zip(rows, self.expected):
            ok = (row.sample_id == sid and row.drug_id == did and row.smiles == smi
                  and row.drug_label == dl and row.moa_label == ml
                  and row.frames.shape == frames.shape and (row.frames == frames).all())
            checks.add(ok, f"pass {i}: row {sid} differs")
        lines = text.splitlines()
        checks.add(len(lines) == len(self.stream_expected), f"pass {i}: {len(lines)} output lines")
        for n, (got, want) in enumerate(zip(lines, self.stream_expected)):
            checks.add(got == want, f"pass {i}: line {n + 1} {got!r} != {want!r}")

    def quality(self, checks: Checks) -> float:
        return 1.0 - checks.failed / checks.attempted

    def report(self) -> dict:
        return {"rows": len(self.expected), "stream_lines": self.STREAM}


WORKLOADS = {w.name: w for w in (TrainPipeline, RetrievalGallery, ManifestIngest)}


# ---------------------------------------------------------------------------
# Machine, measurement and report
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def layer_metrics(tracer, traced_s: list[float], untraced_s: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics (shares of traced pass time, counts per pass) and the
    absolute per-span table behind them."""
    from tracer import PASS, REPORTED_OPS, SETUP, span_totals

    spans = tracer.arrays()
    run = span_totals(spans, PASS)
    setup = span_totals(spans, SETUP)
    by, passes, total = run["by_name"], max(run["roots"], 1), run["root_s"] or 1.0

    def get(name, field, table=by):
        return table.get(name, (0, 0.0, 0.0, 0))[field]

    def pct(seconds, base=total):
        return 100.0 * seconds / base

    m: dict[str, tuple[float, str]] = {}
    for op in REPORTED_OPS:
        m[f"autodiff.{op}.calls"] = (get(f"autodiff.{op}.fwd", 0) / passes, "count")
        m[f"autodiff.{op}.fwd_pct"] = (pct(get(f"autodiff.{op}.fwd", 2)), "%")
        if op != "constant":
            m[f"autodiff.{op}.bwd_pct"] = (pct(get(f"autodiff.{op}.bwd", 2)), "%")
    m["autodiff.backward.self_pct"] = (pct(get("autodiff.backward", 2)), "%")
    nodes = sum(v[3] for k, v in by.items() if k.startswith("autodiff.") and k.endswith(".fwd")
                and k != "autodiff.constant.fwd")
    m["autodiff.nodes_per_step"] = (nodes / run["steps"] if run["steps"] else 0.0, "count")
    for fn in ("similarity", "msc_loss", "hard_triplet_loss", "center_loss", "classification_ce",
               "total_loss", "build_supervision", "update_centers"):
        m[f"losses.{fn}.pct"] = (pct(get(f"losses.{fn}", 1)), "%")
    m["data.pk_sample_indices.calls"] = (get("data.pk_sample_indices", 0) / passes, "count")
    m["data.pk_sample_indices.pct"] = (pct(get("data.pk_sample_indices", 1)), "%")
    m["data.load_manifest.self_pct"] = (pct(get("data.load_manifest", 2)), "%")
    setup_total = setup["root_s"] or 1.0
    for fn in ("generate_synthetic", "write_dataset"):
        m[f"data.{fn}.setup_pct"] = (pct(get(f"data.{fn}", 1, setup["by_name"]), setup_total), "%")
    for fn in ("sequence_forward", "molecule_forward", "head_forward", "as_leaves",
               "token_count_matrix", "pool_frames"):
        m[f"model.{fn}.pct"] = (pct(get(f"model.{fn}", 1)), "%")
    stages = ("warmup", "pretrain", "finetune")
    for stage in stages:
        m[f"train.run_stage.{stage}.pct"] = (pct(get(f"train.run_stage.{stage}", 1)), "%")
    m["train.steps"] = (run["steps"] / passes, "count")
    m["train.steps_pct"] = (pct(run["step_s"]), "%")
    m["train.sgd_step.pct"] = (pct(get("train.sgd_step", 1)), "%")
    m["train.loop_self_pct"] = (pct(sum(get(f"train.run_stage.{s}", 2) for s in stages)), "%")
    for fn in ("evaluate_retrieval", "rank_gallery"):
        m[f"metrics.{fn}.calls"] = (get(f"metrics.{fn}", 0) / passes, "count")
        m[f"metrics.{fn}.pct"] = (pct(get(f"metrics.{fn}", 1)), "%")
    m["metrics.ap_cmc_self_pct"] = (pct(get("metrics.evaluate_retrieval", 2)), "%")
    m["metrics.accuracy.pct"] = (pct(get("metrics.accuracy", 1)), "%")
    m["metrics.ranked_bytes"] = (tracer.ranked_bytes, "bytes")
    canon_calls = get("smiles.canonical_smiles", 0) / passes
    m["smiles.canonical_smiles.calls"] = (canon_calls, "count")
    m["smiles.canonical_smiles.pct"] = (pct(get("smiles.canonical_smiles", 1)), "%")
    m["smiles.distinct_ratio"] = (len(tracer.smiles_inputs) / canon_calls if canon_calls else 0.0, "ratio")
    for fn in ("encode_tokens", "build_vocabulary"):
        m[f"smiles.{fn}.pct"] = (pct(get(f"smiles.{fn}", 1)), "%")
    m["cli.main.pct"] = (pct(get("cli.main", 1)), "%")
    m["cli.self_pct"] = (pct(get("cli.main", 2)), "%")
    traced, untraced = statistics.median(traced_s), statistics.median(untraced_s)
    m["trace.pass_s"] = (traced, "s")
    m["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    m["trace.spans_per_pass"] = (sum(v[0] for v in by.values()) / passes, "count")
    table = {"passes": run["roots"], "pass_s": run["root_s"], "self_s": run["self_s"],
             "steps": run["steps"], "step_s": run["step_s"], "open_spans": run["open"],
             "spans": {k: dict(zip(("calls", "incl_s", "self_s", "calls_in_steps"), v)) for k, v in by.items()},
             "setup_spans": {k: dict(zip(("calls", "incl_s", "self_s", "calls_in_steps"), v))
                             for k, v in setup["by_name"].items()}}
    return m, table


def import_seconds() -> float:
    """Start a fresh interpreter that imports numpy and molseq; its wall time."""
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, molseq"], cwd=SRC, check=True)
    return perf_counter() - t


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    from tracer import PASS, SETUP, Tracer

    import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
    import molseq  # noqa: F401

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    checks = Checks()
    tracer = Tracer() if trace else None
    try:
        workload = WORKLOADS[name](seed, workdir)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            if tracer:
                tracer.install()
            t = perf_counter()
            with tracer.span(SETUP) if tracer else contextlib.nullcontext():
                workload.setup()
            setup_s.append(perf_counter() - t)
            if tracer:
                tracer.restore()
                tracer.smiles_inputs.clear()

        untraced_s: list[float] = []
        traced_s: list[float] = []
        # A traced run alternates an untraced and a traced pass on the same
        # inputs, and always ends on a whole pair.
        minimum = 4 if trace else workload.min_passes
        start = perf_counter()
        i = 0
        while i < minimum or perf_counter() - start < seconds or (trace and i % 2):
            traced_pass = trace and i % 2 == 1
            if traced_pass:
                tracer.install()
            t = perf_counter()
            with tracer.span(PASS) if traced_pass else contextlib.nullcontext():
                out = workload.run(i // 2 if trace else i)
            elapsed = perf_counter() - t
            if traced_pass:
                tracer.restore()
            (traced_s if traced_pass else untraced_s).append(elapsed)
            workload.check(i // 2 if trace else i, out, checks)
            out = None
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.finish(checks)

        detail = {"workload": name, "seed": seed, "trace": int(trace), "machine": machine_info(),
                  "import_s": import_s, "setup_repeats_s": setup_s, "untraced_pass_s": untraced_s,
                  "traced_pass_s": traced_s, **workload.report()}
        if trace:
            metrics, table = layer_metrics(tracer, traced_s, untraced_s)
            # The layers' self times must add up to the traced pass time.
            gap = abs(table["self_s"] - sum(traced_s))
            slack = 1e-3 * len(traced_s) + abs(statistics.median(traced_s) - statistics.median(untraced_s))
            checks.add(table["open_spans"] == 0 and gap <= slack,
                       f"span self times sum to {table['self_s']} s, passes took {sum(traced_s)} s")
            detail["layers"] = table
            tracer.save(OUT / f"spans-{name}-seed{seed}.npz")
        else:
            metrics = {
                "setup_s": (statistics.median(import_s) + statistics.median(setup_s), "s"),
                "pass_s": (statistics.median(untraced_s), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "quality": (workload.quality(checks), "frac"),
            }
        detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
        detail["checks"] = {"attempted": checks.attempted, "failed": checks.failed, "notes": checks.notes}
        (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1) + "\n")
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    info = detail["machine"]
    print(f"machine: nproc={info['nproc']} cpus_usable={info['cpus_usable']} python={info['python']} "
          f"numpy={info['numpy']} blas={info['blas']} blas_threads={info['blas_threads']}")
    passes = traced_s if trace else untraced_s
    print(f"workload={name} seed={seed} trace={int(trace)} passes={len(passes)} "
          f"measured_s={perf_counter() - start:.1f}")
    if "loss_digest" in detail:
        print(f"loss_digest={detail['loss_digest']} drug_map={detail['drug_map']}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value!r} {unit}")
    print(f"checks: attempted={checks.attempted} failed={checks.failed}")
    for note in checks.notes:
        print(f"  FAILED {note}")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
