"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines; plain `pytest` runs them silently.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import log_softmax

from molseq import autodiff as ad
from molseq import losses as ls
from molseq import metrics as mt
from molseq import smiles as sk
from molseq.data import SyntheticSpec, generate_synthetic, load_smiles_pool, prepare_split
from molseq.train import (
    GRAD_TOLERANCE,
    TrainConfig,
    gradient_check_suite,
    run_pipeline,
    run_strategy,
    sweep_center_weight,
)
from test_metrics import brute_retrieval
from test_smiles import fully_discriminated, random_molecule

E2E_SPEC = SyntheticSpec(num_moas=4, drugs_per_moa=3, samples_per_drug=40, T=16, f=32,
                         seed=7, separability=2.5, confounding=0.2)
E2E_EPOCHS = 200
E2E_THRESHOLD = 0.90


def report(name: str, detail: str = "") -> None:
    print(f"[ACCEPTANCE] {name}: PASS" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def e2e_split():
    return prepare_split(generate_synthetic(E2E_SPEC), ratio=0.8, seed=E2E_SPEC.seed)


@pytest.fixture(scope="module")
def base_config():
    return TrainConfig(epochs=E2E_EPOCHS, seed=7, embed_dim=64, eval_every=50)


@pytest.fixture(scope="module")
def pipeline_runs(e2e_split, base_config):
    """One full pipeline and its seconds: for thresholds, and for determinism against the sweep's w0.1/."""
    t0 = time.monotonic()
    result = run_pipeline(e2e_split, base_config)
    return result, time.monotonic() - t0


@pytest.fixture(scope="module")
def sweep_run(e2e_split, base_config, tmp_path_factory):
    """The sweep's rows and output directory; its w0.1/ pipeline is a second run of ``pipeline_runs``."""
    out = tmp_path_factory.mktemp("sweep")
    return sweep_center_weight(base_config, [0.0, 0.1, 1.0], e2e_split, out_dir=out), out


def last_row(csv_path) -> dict[str, str]:
    header, *rows = csv_path.read_text().splitlines()
    return dict(zip(header.split(","), rows[-1].split(",")))


def test_gradient_suite():
    t0 = time.monotonic()
    checks = gradient_check_suite(eps=1e-5)
    seconds = time.monotonic() - t0
    for name, err in checks:
        assert err <= GRAD_TOLERANCE, f"{name}: {err:.3e} > {GRAD_TOLERANCE}"
    assert seconds < 60.0
    worst = max(err for _, err in checks)
    report("gradient-suite", f"{len(checks)} checks, worst {worst:.2e}, {seconds:.1f}s")


def test_clip_reduction():
    rng = np.random.default_rng(42)
    for _ in range(100):
        b = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        tau = float(rng.uniform(0.05, 1.0))
        s = ad.Tensor(rng.normal(size=(b, d)))
        v = ad.Tensor(rng.normal(size=(b, d)))
        sim = ls.similarity(s, v, tau)
        sup = ls.build_supervision(np.arange(b))  # all-distinct labels
        ours = float(ls.msc_loss(sim, sup).data)
        sv = sim.data
        row = -np.mean([log_softmax(sv[i])[i] for i in range(b)])
        col = -np.mean([log_softmax(sv[:, j])[j] for j in range(b)])
        vanilla_clip = (row + col) / 2.0
        assert ours == pytest.approx(2.0 * vanilla_clip, abs=1e-12)
    report("clip-reduction", "100 instances within 1e-12")


def test_loss_closed_forms():
    for b in (2, 3, 5, 8):
        sup = ls.build_supervision(np.arange(b))
        sim = ad.Tensor(np.zeros((b, b)))
        assert float(ls.msc_loss(sim, sup).data) == pytest.approx(2.0 * math.log(b), abs=1e-12)

    feats = ad.Tensor(np.array([[0.0], [0.1], [5.0], [5.1]]))
    triplet = ls.hard_triplet_loss(feats, [0, 0, 1, 1], margin=0.3)
    assert float(triplet.data) == 0.0

    state = ls.CenterState(centers=np.array([[1.0, -2.0], [0.5, 3.0]]))
    at_centers = ad.Tensor(state.centers[[0, 1, 1, 0]])
    assert float(ls.center_loss(at_centers, [0, 1, 1, 0], state).data) == 0.0

    for k in (2, 4, 9):
        ce = ls.classification_ce(ad.Tensor(np.zeros((3, k))), [0, k - 1, 1])
        assert float(ce.data) == pytest.approx(math.log(k), abs=1e-12)
    report("loss-closed-forms")


def test_metric_oracle_equivalence():
    rng = np.random.default_rng(99)
    for _ in range(100):
        q_n = int(rng.integers(1, 11))
        g_n = int(rng.integers(2, 21))
        d = int(rng.integers(2, 7))
        g_labels = rng.integers(0, 3, size=g_n)
        q_labels = g_labels[rng.integers(0, g_n, size=q_n)]
        q = rng.normal(size=(q_n, d))
        g = rng.normal(size=(g_n, d))
        max_rank = min(20, g_n)
        result = mt.evaluate_retrieval(q, q_labels, g, g_labels, max_rank=max_rank)
        aps, cmc = brute_retrieval(q, q_labels, g, g_labels, max_rank)
        np.testing.assert_allclose(result.average_precisions, aps, atol=1e-12)
        np.testing.assert_allclose(result.cmc, cmc, atol=1e-12)
        assert result.map == pytest.approx(aps.mean(), abs=1e-12)
        assert (np.diff(result.cmc) >= 0).all()
        assert result.rank1 <= result.rank5 <= result.rank10
    report("metric-oracle", "100 instances within 1e-12; CMC monotone")


def test_supervision_matrices():
    rng = np.random.default_rng(314)
    for _ in range(300):
        b = int(rng.integers(1, 65))
        labels = rng.integers(0, max(1, int(rng.integers(1, 12))), size=b)
        sup = ls.build_supervision(labels)
        np.testing.assert_array_equal(sup.m_self, np.eye(b))
        np.testing.assert_array_equal(sup.m_class, sup.m_class.T)
        expected = (labels[:, None] == labels[None, :]).astype(float)
        np.testing.assert_array_equal(sup.m_class, expected)
        assert (np.diag(sup.m_class) == 1).all()
        assert (sup.m_self <= sup.m_class).all()
        distinct = len(set(labels.tolist())) == b
        assert np.array_equal(sup.m_class, sup.m_self) == distinct
    report("supervision-matrices", "300 random label vectors, B <= 64")


def test_smiles_suite():
    t0 = time.monotonic()
    pool = load_smiles_pool()
    for s in pool:
        assert "".join(sk.tokenize(s)) == s
        canon = sk.canonical_smiles(s)
        assert sk.canonical_smiles(canon) == canon  # idempotence

    # 50 molecules whose rank refinement fully discriminates every atom,
    # each rewritten 1000 times with random atom orders.
    rng = np.random.default_rng(2718)
    molecules = [sk.parse(s) for s in pool if fully_discriminated(sk.parse(s))][:35]
    while len(molecules) < 50:
        g = random_molecule(rng, int(rng.integers(5, 14)))
        if fully_discriminated(g):
            molecules.append(g)
    for graph in molecules:
        canon = sk.canonicalize(graph)
        for _ in range(1000):
            rewrite = sk.random_smiles(graph, rng)
            assert sk.canonical_smiles(rewrite) == canon
    seconds = time.monotonic() - t0
    assert seconds < 60.0
    report("smiles-suite", f"{len(pool)} round trips, 50x1000 rewrites, {seconds:.1f}s")


def test_e2e_synthetic_convergence(pipeline_runs):
    first, seconds = pipeline_runs
    final = first.finetune.final
    assert seconds < 600.0
    assert final["accuracy"] >= E2E_THRESHOLD
    assert final["rank1"] >= E2E_THRESHOLD
    report("e2e-convergence",
           f"accuracy={final['accuracy']:.3f}, rank1={final['rank1']:.3f}, {seconds:.0f}s")


def test_directional_strategy_ordering(e2e_split, base_config, tmp_path):
    gaps = []
    for seed in (1, 2, 3):
        # S3's first stage is S1 and writes its files as seq_only/ (test_train pins the bytes equal); the
        # metric CSV holds repr floats, so its last row gives S1's reported mAP exactly.
        s3_report, _ = run_strategy("S3", e2e_split, replace(base_config, seed=seed), out_dir=tmp_path / str(seed))
        s1_map = float(last_row(tmp_path / str(seed) / "seq_only" / "metric_history.csv")["map"])
        assert s3_report["map"] > s1_map, f"seed {seed}"
        gaps.append(s3_report["map"] - s1_map)
    report("directional-ordering", "S3 > S1 drug mAP on seeds 1-3, gaps "
           + ", ".join(f"{g:+.3f}" for g in gaps))


def test_sweep_smoke(sweep_run):
    rows, _ = sweep_run
    assert len(rows) == 3
    assert [row["weight"] for row in rows] == [0.0, 0.1, 1.0]
    chosen = rows[1]
    assert chosen["accuracy"] >= E2E_THRESHOLD
    assert chosen["rank1"] >= E2E_THRESHOLD
    report("sweep-smoke", f"3 rows; w=0.1 accuracy={chosen['accuracy']:.3f}, rank1={chosen['rank1']:.3f}")


def test_full_determinism(pipeline_runs, sweep_run, base_config):
    first, _ = pipeline_runs
    _, sweep_dir = sweep_run
    assert replace(base_config, w_center=0.1) == base_config  # so the sweep's w0.1/ is a second identical run
    for stage_name in ("warmup", "pretrain", "finetune"):
        a = getattr(first, stage_name)
        b = sweep_dir / "w0.1" / stage_name
        assert a.metrics_csv() == (b / "metric_history.csv").read_text(), stage_name
        assert a.loss_csv() == (b / "loss_history.csv").read_text(), stage_name
    report("determinism", "metric and loss histories bitwise identical")
