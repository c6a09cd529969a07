import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from molseq import metrics as mt
from molseq.errors import LabelOutOfRange, ShapeMismatch


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
    """``evaluate_retrieval`` plus the number of queries it ranked by the full-argsort fallback."""
    calls = []
    rank = mt._rank

    def counting(gallery_unit, query_emb):
        calls.append(query_emb)
        return rank(gallery_unit, query_emb)

    monkeypatch.setattr(mt, "_rank", counting)
    result = mt.evaluate_retrieval(*args)
    monkeypatch.setattr(mt, "_rank", rank)
    return result, len(calls)


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

    def test_many_blocks_with_fallback_rows_between_fast_rows(self, rng, monkeypatch):
        g_n, q_n, d = 30_000, 14, 4
        block = 2**17 // g_n
        assert q_n // block >= 3 and q_n % block  # three full blocks, then a partial one
        g = rng.normal(size=(g_n, d))
        g_labels = rng.choice(4, size=g_n, p=[0.5, 0.3, 0.15, 0.05])  # unequal relevant counts
        g_labels[[10, 20_000]] = 4  # label 4: an exact tie between its two rows
        g[20_000] = g[10]
        g_labels[[500, 29_999]] = 5  # label 5: one NaN row
        g[29_999] = np.nan
        q = rng.normal(size=(q_n, d))
        q_labels = np.array([0, 4, 1, 2, 3, 0, 5, 1, 2, 4, 3, 0, 5, 1])
        result, fallbacks = evaluate_counting_fallbacks(monkeypatch, q, q_labels, g, g_labels, 20)
        assert fallbacks == 4
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

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_rank_gallery_loop(self, data):
        g_n = data.draw(st.integers(min_value=1, max_value=60))
        q_n = data.draw(st.integers(min_value=1, max_value=8))
        d = data.draw(st.integers(min_value=1, max_value=6))
        few_ints = st.integers(min_value=-2, max_value=2).map(float)
        g = data.draw(hnp.arrays(np.float64, (g_n, d), elements=few_ints))
        q = data.draw(hnp.arrays(np.float64, (q_n, d), elements=few_ints))
        g_labels = data.draw(hnp.arrays(np.int64, g_n, elements=st.integers(min_value=0, max_value=3)))
        q_labels = np.array(data.draw(st.lists(st.sampled_from(g_labels.tolist()),
                                               min_size=q_n, max_size=q_n)))
        max_rank = data.draw(st.integers(min_value=1, max_value=25))
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

    def test_negative_label_is_the_one_named(self):
        with pytest.raises(LabelOutOfRange) as err:
            mt.accuracy(np.zeros((3, 3)), [0, -1, 2])
        assert err.value.label == -1
