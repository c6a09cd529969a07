import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from molseq import metrics as mt
from molseq.errors import LabelOutOfRange, ShapeMismatch


GALLERY_LABELS = np.array([0, 1, 0, 2])


def brute_rank(query, gallery):
    """Independent ranking oracle: explicit cosine + stable sort."""
    def cos(a, b):
        return float(a @ b / max(np.linalg.norm(a) * np.linalg.norm(b), 1e-24))

    scored = sorted(range(len(gallery)), key=lambda i: (-cos(query, gallery[i]), i))
    return np.array(scored)


def brute_retrieval(q_embs, q_labels, g_embs, g_labels, max_rank):
    """Direct-definition AP and CMC, written independently of the library."""
    aps, hits = [], []
    for qi in range(len(q_labels)):
        order = brute_rank(q_embs[qi], g_embs)
        relevant = [g_labels[i] == q_labels[qi] for i in order]
        precisions, correct = [], 0
        first = None
        for rank, rel in enumerate(relevant, start=1):
            if rel:
                correct += 1
                precisions.append(correct / rank)
                if first is None:
                    first = rank
        aps.append(sum(precisions) / len(precisions))
        hits.append(first)
    cmc = np.array([np.mean([h <= k for h in hits]) for k in range(1, max_rank + 1)])
    return np.array(aps), cmc


def rank_gallery_retrieval(q_embs, q_labels, g_embs, g_labels, max_rank):
    """Bitwise reference: a per-query loop over ``rank_gallery`` with the library's AP/CMC arithmetic."""
    g_labels = np.asarray(g_labels)
    num_g = g_labels.size
    aps, first_hit = [], []
    for query, label in zip(q_embs, q_labels):
        matches = (g_labels[mt.rank_gallery(query, g_embs)] == label).astype(np.float64)
        precisions = np.cumsum(matches) / np.arange(1, num_g + 1)
        aps.append((precisions * matches).sum() / matches.sum())
        first_hit.append(int(np.argmax(matches)) + 1)
    max_rank = min(max_rank, num_g)
    ranks = np.arange(1, max_rank + 1)
    cmc = (np.array(first_hit)[None, :] <= ranks[:, None]).mean(axis=1)
    return np.array(aps), cmc


def assert_bitwise_reference(q_embs, q_labels, g_embs, g_labels, max_rank, result):
    aps, cmc = rank_gallery_retrieval(q_embs, q_labels, g_embs, g_labels, max_rank)
    assert np.array_equal(result.average_precisions, aps)
    assert np.array_equal(result.cmc, cmc)
    assert result.map == float(aps.mean())
    assert result.rank1 == cmc[0]
    assert result.rank5 == cmc[min(5, cmc.size) - 1]
    assert result.rank10 == cmc[min(10, cmc.size) - 1]


def evaluate_counting_fallbacks(monkeypatch, *args):
    """``evaluate_retrieval`` plus the number of queries it ranked by the GEMV fallback."""
    calls = []
    fallback = mt._fallback_positions

    def counting(gallery_unit, query_emb, members):
        calls.append(query_emb)
        return fallback(gallery_unit, query_emb, members)

    monkeypatch.setattr(mt, "_fallback_positions", counting)
    result = mt.evaluate_retrieval(*args)
    monkeypatch.setattr(mt, "_fallback_positions", fallback)
    return result, len(calls)


def evaluate_recording_blocks(monkeypatch, *args):
    """``evaluate_retrieval``, its fallback count and the row counts of its scoring blocks.

    Every ``_normalize`` call but the gallery's and the one-row calls of the
    fallback's queries scores a block, so a test reading the blocks keeps
    each block above one row.
    """
    rows = []
    normalize = mt._normalize

    def spy(embs):
        rows.append(embs.shape[0])
        return normalize(embs)

    monkeypatch.setattr(mt, "_normalize", spy)
    result, fallbacks = evaluate_counting_fallbacks(monkeypatch, *args)
    monkeypatch.setattr(mt, "_normalize", normalize)
    return result, fallbacks, [n for n in rows[1:] if n != 1]


def row_with_unit_first_component(target):
    """A row [1, y] whose L2-normalized first component is exactly ``target`` in (0, 1)."""
    def first(y):
        return mt._normalize(np.array([[1.0, y]]))[0, 0]

    lo, hi = 0.0, 1e8  # first(y) falls from 1 towards 0 as y grows
    while np.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if first(mid) > target else (lo, mid)
    if first(hi) != target:
        pytest.fail(f"no row [1, y] normalizes to a first component of {target!r}")
    return np.array([1.0, hi])


class TestRankGallery:
    def test_query_in_gallery_ranks_first(self, rng):
        gallery = rng.normal(size=(10, 6))
        order = mt.rank_gallery(gallery[4], gallery)
        assert order[0] == 4

    def test_orthogonal_basis(self):
        gallery = np.eye(4)
        assert mt.rank_gallery(gallery[2], gallery)[0] == 2

    def test_tie_broken_by_index(self):
        gallery = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # rows 0,1 cosine-tied
        order = mt.rank_gallery(np.array([1.0, 0.0]), gallery)
        assert order.tolist() == [0, 1, 2]

    def test_scale_invariance(self, rng):
        q = rng.normal(size=5)
        g = rng.normal(size=(12, 5))
        base = mt.rank_gallery(q, g)
        assert (mt.rank_gallery(3.7 * q, 251.0 * g) == base).all()

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            q = rng.normal(size=8)
            g = rng.normal(size=(20, 8))
            assert (mt.rank_gallery(q, g) == brute_rank(q, g)).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mt.rank_gallery(np.zeros(3), np.zeros((4, 2)))

    def test_empty_gallery(self):
        with pytest.raises(ShapeMismatch, match=r"^rank_gallery: incompatible shapes \(\(0, 3\),\)$"):
            mt.rank_gallery(np.zeros(3), np.zeros((0, 3)))


class TestEvaluateRetrieval:
    def test_hand_ap(self):
        # ranked labels come out [a, b, a]: AP = (1/1 + 2/3) / 2
        gallery = np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0]])
        g_labels = np.array([0, 1, 0])
        result = mt.evaluate_retrieval(np.array([[1.0, 0.0]]), [0], gallery, g_labels, max_rank=3)
        assert result.average_precisions[0] == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert result.map == pytest.approx(0.833333333333, abs=1e-9)

    def test_perfect_retrieval(self, rng):
        g = np.vstack([np.tile([1.0, 0.0], (5, 1)) + rng.normal(scale=0.01, size=(5, 2)),
                       np.tile([0.0, 1.0], (5, 1)) + rng.normal(scale=0.01, size=(5, 2))])
        labels = np.array([0] * 5 + [1] * 5)
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = mt.evaluate_retrieval(q, [0, 1], g, labels, max_rank=10)
        assert result.map == 1.0
        assert (result.cmc == 1.0).all()

    def test_brute_force_equivalence(self, rng):
        for _ in range(100):
            q_n = int(rng.integers(1, 11))
            g_n = int(rng.integers(2, 21))
            d = int(rng.integers(2, 7))
            g_labels = rng.integers(0, 3, size=g_n)
            q_labels = g_labels[rng.integers(0, g_n, size=q_n)]  # guaranteed present
            q = rng.normal(size=(q_n, d))
            g = rng.normal(size=(g_n, d))
            max_rank = min(15, g_n)
            result = mt.evaluate_retrieval(q, q_labels, g, g_labels, max_rank=max_rank)
            aps, cmc = brute_retrieval(q, q_labels, g, g_labels, max_rank)
            np.testing.assert_allclose(result.average_precisions, aps, atol=1e-12)
            np.testing.assert_allclose(result.cmc, cmc, atol=1e-12)
            assert result.map == pytest.approx(aps.mean(), abs=1e-12)

    def test_cmc_monotone_and_bounded(self, rng):
        for _ in range(20):
            g_labels = rng.integers(0, 2, size=12)
            q_labels = g_labels[:4]
            result = mt.evaluate_retrieval(rng.normal(size=(4, 3)), q_labels,
                                           rng.normal(size=(12, 3)), g_labels, max_rank=12)
            assert (np.diff(result.cmc) >= 0).all()
            assert result.cmc.min() >= 0 and result.cmc.max() <= 1
            assert result.rank1 <= result.rank5 <= result.rank10

    def test_cmc1_is_rank1_match_fraction(self, rng):
        g_labels = rng.integers(0, 2, size=10)
        q = rng.normal(size=(5, 4))
        g = rng.normal(size=(10, 4))
        q_labels = g_labels[:5]
        result = mt.evaluate_retrieval(q, q_labels, g, g_labels, max_rank=10)
        top1 = [g_labels[mt.rank_gallery(q[i], g)[0]] == q_labels[i] for i in range(5)]
        assert result.cmc[0] == pytest.approx(np.mean(top1))

    def test_gallery_storage_order_irrelevant(self, rng):
        g = rng.normal(size=(15, 4))
        g_labels = rng.integers(0, 3, size=15)
        q = rng.normal(size=(4, 4))
        q_labels = g_labels[:4]
        base = mt.evaluate_retrieval(q, q_labels, g, g_labels, max_rank=15)
        perm = rng.permutation(15)
        shuffled = mt.evaluate_retrieval(q, q_labels, g[perm], g_labels[perm], max_rank=15)
        assert shuffled.map == pytest.approx(base.map, abs=1e-12)
        np.testing.assert_allclose(shuffled.cmc, base.cmc, atol=1e-12)

    def test_tie_free_gallery_needs_no_fallback(self, rng, monkeypatch):
        g = rng.normal(size=(200, 8))
        g_labels = rng.integers(0, 5, size=200)
        q = rng.normal(size=(20, 8))
        q_labels = g_labels[:20]
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert fallbacks == 0
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_duplicated_gallery_rows_fall_back(self, rng, monkeypatch):
        base = rng.normal(size=(12, 5))
        base_labels = rng.integers(0, 3, size=12)
        g = np.vstack([base, base[:4], base[:4]])
        g_labels = np.concatenate([base_labels, base_labels[:4], base_labels[:4]])
        q = rng.normal(size=(4, 5))
        q_labels = base_labels[:4]
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert fallbacks == 4  # each query's relevant rows include an exact tie
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_quantized_embeddings_fall_back(self, rng, monkeypatch):
        g = rng.integers(-2, 3, size=(40, 3)).astype(np.float64)
        g_labels = rng.integers(0, 4, size=40)
        q = rng.integers(-2, 3, size=(10, 3)).astype(np.float64)
        q_labels = g_labels[:10]
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert fallbacks > 0
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_score_one_ulp_from_relevant_falls_back(self, rng, monkeypatch):
        g = rng.normal(size=(20, 4))
        g_labels = np.arange(20) % 4
        q = rng.normal(size=(1, 4))
        q_labels = np.array([0])

        def scores():
            return mt._normalize(g) @ mt._normalize(q)[0]

        # Walk row 7 (label 3) away from a copy of row 0 (label 0) until
        # its score sits exactly one ulp from row 0's.
        g[7] = g[0]
        for _ in range(1000):
            s = scores()
            if s[7] in (np.nextafter(s[0], np.inf), np.nextafter(s[0], -np.inf)):
                break
            g[7, 0] = np.nextafter(g[7, 0], np.inf)
        else:
            pytest.fail("no gallery row one ulp from the relevant score")
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert fallbacks == 1
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_nan_gallery_row(self, rng, monkeypatch):
        g = rng.normal(size=(30, 4))
        g_labels = np.arange(30) % 3
        g[4] = np.nan  # label 1
        q = rng.normal(size=(6, 4))
        q_labels = np.array([0, 1, 2, 0, 1, 2])
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert fallbacks == 2  # only the label-1 queries have a NaN relevant score
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_fallback_sorts_only_scores_up_to_the_worst_relevant(self, rng, monkeypatch):
        # Queries 0-2 each have two gallery copies of themselves (an exact tie
        # at the top) as their relevant rows; query 3's label holds a NaN row.
        g_n, d = 300, 6
        g = rng.normal(size=(g_n, d))
        g_labels = np.arange(g_n) % 5
        q = rng.normal(size=(4, d))
        q_labels = np.array([5, 6, 7, 8])
        g[:6], g_labels[:6] = np.repeat(q[:3], 2, axis=0), np.repeat(q_labels[:3], 2)
        g[6], g_labels[6] = np.nan, 8
        sizes = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            sizes.append(np.size(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        monkeypatch.setattr(np, "argsort", argsort)
        assert fallbacks == 4
        # The label grouping, then each fallback: the tied pair alone, and all
        # G scores for the NaN relevant row.
        assert sizes == [g_n, 2, 2, 2, g_n]
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_many_blocks_with_fallback_rows_between_fast_rows(self, rng, monkeypatch):
        g_n, q_n, d = 30_000, 28, 4
        g = rng.normal(size=(g_n, d))
        g_labels = rng.choice(4, size=g_n, p=[0.5, 0.3, 0.15, 0.05])  # unequal relevant counts
        g_labels[[10, 20_000]] = 4  # label 4: an exact tie between its two rows
        g[20_000] = g[10]
        g_labels[[500, 29_999]] = 5  # label 5: one NaN row
        g[29_999] = np.nan
        q = rng.normal(size=(q_n, d))
        q_labels = np.tile([0, 4, 1, 2, 3, 0, 5, 1, 2, 4, 3, 0, 5, 1], 2)
        result, fallbacks, blocks = evaluate_recording_blocks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert blocks == [8, 8, 8, 4]  # three full blocks, then a partial one
        assert fallbacks == 8
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_blocks_keep_eight_queries_past_one_row_blocks(self, rng, monkeypatch):
        # Past G = 40,960 not even one 8-row tile of scores fits the budget;
        # blocks still score 8 queries per GEMM.
        g_n, q_n, d = 65_537, 20, 16
        assert 64 * g_n > mt.SCORE_BLOCK_BYTES
        g = rng.normal(size=(g_n, d))
        g_labels = rng.integers(0, 40, size=g_n)
        g[-1], g_labels[-1] = g[0], (g_labels[0] + 1) % 40  # an exact tie across two labels
        q = rng.normal(size=(q_n, d))
        q_labels = g_labels[1:q_n + 1].copy()
        q_labels[[2, 9, 17]] = g_labels[0]
        q_labels[[5, 12]] = g_labels[-1]
        result, fallbacks, blocks = evaluate_recording_blocks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert blocks == [8, 8, 4]
        assert fallbacks == np.isin(q_labels, g_labels[[0, -1]]).sum() >= 5
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_queries_fewer_than_one_block(self, rng, monkeypatch):
        g_n, q_n, d = 1_000, 20, 6  # one block would hold 320 rows
        g = rng.normal(size=(g_n, d))
        g_labels = rng.integers(0, 10, size=g_n)
        g[7] = g[3]  # an exact tie within label g_labels[3]
        g_labels[7] = g_labels[3]
        q = rng.normal(size=(q_n, d))
        q_labels = g_labels[:q_n]
        result, fallbacks, blocks = evaluate_recording_blocks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert blocks == [q_n]
        assert fallbacks == (q_labels == g_labels[3]).sum() >= 1
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_fallback_rows_in_the_last_partial_block(self, rng, monkeypatch):
        # 8-row blocks through one buffer: the last block holds 5 rows, and
        # its rows reuse those of the first two blocks' queries 0-4 and 8-12.
        monkeypatch.setattr(mt, "SCORE_BLOCK_BYTES", 0)
        g_n, d = 60, 4
        g = rng.normal(size=(g_n, d))
        g_labels = np.arange(g_n) % 5
        g[55] = g[5]  # label 0: an exact tie between rows 5 and 55
        q = rng.normal(size=(21, d))
        q_labels = np.array([1, 2, 3, 4, 1, 2, 3, 4] * 2 + [1, 0, 2, 0, 3])
        result, fallbacks, blocks = evaluate_recording_blocks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert blocks == [8, 8, 5]
        assert fallbacks == 2  # queries 17 and 19, rows 1 and 3 of the last block
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_scores_stay_within_the_block_budget(self, rng):
        # The benchmark's retrieval shape and clusters: the call holds the
        # unit gallery, one 32-row buffer (2.44 MiB) and small per-query arrays.
        q_n, g_n, d = 500, 10_000, 64
        centers = rng.normal(size=(q_n, d))
        g_labels = np.arange(g_n) % q_n
        q_labels = np.arange(q_n)
        g = centers[g_labels] + 0.7 * rng.normal(size=(g_n, d))
        q = centers[q_labels] + 0.7 * rng.normal(size=(q_n, d))
        tracemalloc.start()
        try:
            mt.evaluate_retrieval(q, q_labels, g, g_labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.nbytes + 3 * 2**20

    def test_worst_relevant_ranked_last_keeps_every_score(self, rng, monkeypatch):
        q = rng.normal(size=(3, 6))
        g = rng.normal(size=(50, 6))
        g_labels = rng.integers(0, 3, size=50)
        g[:3] = -q  # each query's opposite scores -1, below every other row
        q_labels = g_labels[:3]
        for query, label in zip(q, q_labels):
            assert g_labels[mt.rank_gallery(query, g)[-1]] == label
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert fallbacks == 0
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_query_with_one_relevant_item(self, rng, monkeypatch):
        g = rng.normal(size=(40, 5))
        g_labels = np.arange(40) % 8
        g_labels[17] = 8  # the only row of label 8
        q = rng.normal(size=(4, 5))
        q_labels = np.array([8, 0, 8, 3])
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert fallbacks == 0
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_nan_non_relevant_row_keeps_the_fast_path(self, rng, monkeypatch):
        g = rng.normal(size=(30, 4))
        g_labels = np.arange(30) % 3
        g[[4, 11]] = np.nan
        g_labels[[4, 11]] = 3  # no query has label 3
        q = rng.normal(size=(6, 4))
        q_labels = np.array([0, 1, 2, 0, 1, 2])
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert fallbacks == 0
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    @pytest.mark.parametrize("offset", ["inside", "edge"])
    def test_score_within_band_after_worst_relevant_falls_back(self, monkeypatch, offset):
        # With the query e1 in 2-d, each score is exactly the gallery row's
        # normalized first component, so a score can be placed to the bit.
        q = np.array([[1.0, 0.0]])
        g = np.array([[1.0, 0.1], [1.0, 0.5], [1.0, 1.0], [1.0, 3.0], [1.0, 5.0], [0.0, 0.0]])
        g_labels = np.array([1, 0, 0, 1, 1, 1])
        q_labels = np.array([0])
        band = 4 * (2 + 2) * np.finfo(np.float64).eps
        worst = -mt._normalize(g)[2, 0]  # negated score of the worst relevant row
        near = worst + band if offset == "edge" else worst + band / 2
        g[5] = row_with_unit_first_component(-near)
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert fallbacks == 1
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    @pytest.mark.parametrize("q_dtype, g_dtype", [(np.int32, np.int64), (np.int64, np.int32)])
    def test_label_dtypes_match_as_equality_does(self, rng, q_dtype, g_dtype):
        g = rng.normal(size=(50, 3))
        g_labels = rng.integers(0, 4, size=50).astype(g_dtype)
        q = rng.normal(size=(6, 3))
        q_labels = g_labels[:6].astype(q_dtype)
        result = mt.evaluate_retrieval(q, q_labels, g, g_labels, 20)
        assert_bitwise_reference(q, q_labels, g, g_labels, 20, result)

    def test_absent_label_raises_before_scoring(self, monkeypatch):
        def no_scoring(*args):
            raise AssertionError("scored before the label check")

        monkeypatch.setattr(mt, "_normalize", no_scoring)
        q_labels = np.array([1, 7, 0], dtype=np.int32)
        with pytest.raises(mt.QueryLabelAbsent) as err:
            mt.evaluate_retrieval(np.ones((3, 2)), q_labels, np.ones((4, 2)), np.array([0, 1, 0, 2], dtype=np.int64))
        assert err.value.label == 7

    @pytest.mark.parametrize("q, q_labels, g_labels, max_rank, error, message", [
        pytest.param(np.ones((0, 2)), np.array([], dtype=np.int64), GALLERY_LABELS, 20, ShapeMismatch,
                     r"^evaluate_retrieval: incompatible shapes \(\(0, 2\), \(4, 2\)\)$", id="no-queries"),
        pytest.param(np.ones((1, 2)), np.array([0]), GALLERY_LABELS, 0, ValueError, r"^max_rank must be >= 1, got 0$",
                     id="max-rank-0"),
        pytest.param(np.ones((1, 2)), np.array([0]), GALLERY_LABELS, 2.5, TypeError,
                     r"^max_rank must be an int, got 2\.5$", id="max-rank-float"),
        pytest.param(np.ones((1, 2)), np.array([0]), GALLERY_LABELS, True, TypeError,
                     r"^max_rank must be an int, got True$", id="max-rank-bool"),
        pytest.param(np.ones((1, 2)), np.array([[0]]), GALLERY_LABELS, 20, ShapeMismatch,
                     r"^evaluate_retrieval: incompatible shapes \(\(1, 1\), \(4,\)\)$", id="2d-query-labels"),
        pytest.param(np.ones((1, 2)), np.array([0]), GALLERY_LABELS[:, None], 20, ShapeMismatch,
                     r"^evaluate_retrieval: incompatible shapes \(\(1,\), \(4, 1\)\)$", id="2d-gallery-labels"),
    ])
    def test_unscorable_input_raises_before_scoring(self, monkeypatch, q, q_labels, g_labels, max_rank, error,
                                                    message):
        def no_scoring(*args):
            raise AssertionError("scored before the input check")

        monkeypatch.setattr(mt, "_normalize", no_scoring)
        with pytest.raises(error, match=message):
            mt.evaluate_retrieval(q, q_labels, np.ones((4, 2)), g_labels, max_rank)

    def test_numpy_int_max_rank(self, rng):
        g = rng.normal(size=(12, 3))
        g_labels = np.arange(12) % 3
        result = mt.evaluate_retrieval(g[:3], g_labels[:3], g, g_labels, np.int64(4))
        assert result.cmc.size == 4

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_rank_gallery_loop(self, data):
        g_n = data.draw(st.integers(min_value=1, max_value=60))
        q_n = data.draw(st.integers(min_value=1, max_value=30))
        d = data.draw(st.integers(min_value=1, max_value=6))
        # Small ints make ties on most draws; floats mostly take the fast path.
        elements = data.draw(st.sampled_from([
            st.integers(min_value=-2, max_value=2).map(float),
            st.floats(min_value=-2, max_value=2, allow_subnormal=False),
        ]))
        g = data.draw(hnp.arrays(np.float64, (g_n, d), elements=elements))
        q = data.draw(hnp.arrays(np.float64, (q_n, d), elements=elements))
        for rows in (g, q):  # NaN rows, then rows copied from others
            index = st.integers(min_value=0, max_value=rows.shape[0] - 1)
            rows[data.draw(st.lists(index, max_size=2))] = np.nan
            for i, j in data.draw(st.lists(st.tuples(index, index), max_size=3)):
                rows[i] = rows[j]
        g_labels = data.draw(hnp.arrays(np.int64, g_n, elements=st.integers(min_value=0, max_value=3)))
        q_labels = np.array(data.draw(st.lists(st.sampled_from(g_labels.tolist()),
                                               min_size=q_n, max_size=q_n)))
        max_rank = data.draw(st.integers(min_value=1, max_value=25))
        # No budget: 8-row blocks, so most draws reuse the buffer.
        with mock.patch.object(mt, "SCORE_BLOCK_BYTES", 0):
            result = mt.evaluate_retrieval(q, q_labels, g, g_labels, max_rank)
        assert_bitwise_reference(q, q_labels, g, g_labels, max_rank, result)

    def test_query_label_absent(self):
        with pytest.raises(mt.QueryLabelAbsent):
            mt.evaluate_retrieval(np.zeros((1, 2)), [5], np.ones((3, 2)), [0, 1, 0])


class TestAccuracy:
    def test_one_hot_exact(self):
        labels = np.array([0, 2, 1])
        logits = np.eye(3)[labels]
        assert mt.accuracy(logits, labels) == 1.0

    def test_shifted_is_zero(self):
        labels = np.array([0, 1, 2])
        logits = np.eye(3)[(labels + 1) % 3]
        assert mt.accuracy(logits, labels) == 0.0

    def test_five_of_seven(self, rng):
        labels = np.zeros(7, dtype=int)
        logits = np.zeros((7, 2))
        logits[:5, 0] = 1.0
        logits[5:, 1] = 1.0
        assert mt.accuracy(logits, labels) == pytest.approx(5 / 7)

    def test_argmax_tie_lowest_index(self):
        logits = np.array([[1.0, 1.0]])
        assert mt.accuracy(logits, [0]) == 1.0
        assert mt.accuracy(logits, [1]) == 0.0

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            mt.accuracy(np.zeros((1, 2)), [2])

    @pytest.mark.parametrize("labels", [[[0], [1], [2]], [[0, 1, 2]]], ids=["column", "row"])
    def test_labels_not_one_per_row_raise(self, labels):
        # A [3, 1] column would broadcast against the 3 argmaxes to a 3x3 match table.
        with pytest.raises(ShapeMismatch):
            mt.accuracy(np.eye(3), labels)

    def test_negative_label_is_the_one_named(self):
        with pytest.raises(LabelOutOfRange) as err:
            mt.accuracy(np.zeros((3, 3)), [0, -1, 2])
        assert err.value.label == -1
