"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on hand-made nested spans, that the
tracer's wrappers record spans and put every original back, and the
retrieval oracle on a three-query case worked out by hand.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from tracer import PASS, Tracer, span_totals  # noqa: E402


def check_self_time() -> None:
    # pass [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # steps: a and b belong to step 0, c to step 1.
    spans = {
        "names": np.array([PASS, "a", "b", "c"]),
        "name": np.array([0, 1, 2, 3]),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0]),
        "parent": np.array([-1, 0, 1, 0]),
        "root": np.array([0, 0, 0, 0]),
        "step": np.array([-1, 0, 0, 1]),
    }
    t = span_totals(spans, PASS)
    self_s = {k: v[2] for k, v in t["by_name"].items()}
    assert self_s == {PASS: 3.0, "a": 2.0, "b": 1.0, "c": 4.0}, self_s
    assert t["by_name"]["a"][1] == 3.0
    assert t["self_s"] == t["root_s"] == 10.0
    assert (t["steps"], t["step_s"]) == (2, 7.0), (t["steps"], t["step_s"])


def check_restore() -> None:
    from molseq import autodiff as ad
    from molseq import cli, data, metrics, model, train

    owners = (ad, cli, data, metrics, train, model.SequenceEncoder, model.MoleculeEncoder,
              model.ClassifierHead, model.ParameterSet)
    before = [dict(vars(o)) for o in owners]
    x = np.arange(6.0).reshape(2, 3)
    w = np.linspace(-1.0, 1.0, 12).reshape(3, 4)

    def grad_of_w():
        leaf = ad.Tensor(w, requires_grad=True)
        ad.backward(ad.sum_(ad.relu(ad.matmul(x, leaf))))
        return leaf.grad

    plain = grad_of_w()
    tracer = Tracer()
    tracer.install()
    try:
        assert ad.matmul is not before[0]["matmul"] and train.similarity is not before[4]["similarity"]
        with tracer.span(PASS):
            traced = grad_of_w()
    finally:
        tracer.restore()
    after = [dict(vars(o)) for o in owners]
    for o, b, a in zip(owners, before, after):
        changed = [k for k in b if a.get(k) is not b[k]]
        assert not changed and a.keys() == b.keys(), (o, changed)
    assert (traced == plain).all()
    by = span_totals(tracer.arrays(), PASS)["by_name"]
    for name in ("autodiff.matmul.fwd", "autodiff.matmul.bwd", "autodiff.relu.bwd", "autodiff.backward"):
        assert by.get(name, (0,))[0] == 1, (name, by)


def check_oracle() -> None:
    from molseq import metrics

    def unit(deg):
        rad = np.deg2rad(np.asarray(deg, dtype=np.float64))
        return np.stack([np.cos(rad), np.sin(rad)], axis=1)

    gallery = unit([0, 40, 80, 120, 160, 200])
    g_labels = np.array([0, 1, 0, 1, 2, 2])
    queries = unit([10, 125, 185])
    q_labels = np.array([0, 0, 2])
    # Rankings: q0 -> labels 0,1,0,1,2,2; q1 -> 1,2,0,2,1,0; q2 -> 2,2,1,0,1,0.
    want_ap = np.array([(1 + 2 / 3) / 2, (1 / 3 + 2 / 6) / 2, 1.0])
    want_cmc = np.array([2 / 3, 2 / 3, 1, 1, 1, 1])
    aps, cmc = oracle.retrieval(queries, q_labels, gallery, g_labels, chunk=2)
    assert np.abs(aps - want_ap).max() <= 1e-12, aps
    assert np.abs(cmc - want_cmc).max() <= 1e-12, cmc
    got = metrics.evaluate_retrieval(queries, q_labels, gallery, g_labels)
    assert np.abs(got.average_precisions - want_ap).max() <= 1e-12
    assert abs(got.map - 13 / 18) <= 1e-12 and np.abs(got.cmc - want_cmc).max() <= 1e-12


def main() -> int:
    failed = 0
    for check in (check_self_time, check_restore, check_oracle):
        try:
            check()
            print(f"{check.__name__}: PASS")
        except AssertionError as exc:
            failed += 1
            print(f"{check.__name__}: FAIL {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
