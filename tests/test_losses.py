import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_softmax

from molseq import autodiff as ad
from molseq import losses as ls
from molseq.train import TrainConfig
from molseq.errors import LabelOutOfRange, NonFiniteValue, ShapeMismatch


def tensor(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64))


def oracle_soft_ce(sv: np.ndarray, targets: np.ndarray) -> float:
    """Independent bidirectional soft cross-entropy (scipy log_softmax)."""
    b = sv.shape[0]
    row_t = targets / targets.sum(axis=1, keepdims=True)
    col_t = targets / targets.sum(axis=0, keepdims=True)
    row = -(row_t * log_softmax(sv, axis=1)).sum() / b
    col = -(col_t * log_softmax(sv, axis=0)).sum() / sv.shape[1]
    return (row + col) / 2.0


def oracle_clip_ce(sv: np.ndarray) -> float:
    """Vanilla symmetric contrastive CE with matched diagonal pairs."""
    b = sv.shape[0]
    row = -np.mean([log_softmax(sv[i])[i] for i in range(b)])
    col = -np.mean([log_softmax(sv[:, j])[j] for j in range(b)])
    return (row + col) / 2.0


def oracle_triplet(features: np.ndarray, labels: np.ndarray, margin: float) -> list[float]:
    """Per-anchor batch-hard losses via explicit loops."""
    out = []
    for a in range(len(labels)):
        pos = [((features[a] - features[j]) ** 2).sum() for j in range(len(labels)) if j != a and labels[j] == labels[a]]
        neg = [((features[a] - features[j]) ** 2).sum() for j in range(len(labels)) if labels[j] != labels[a]]
        out.append(max(0.0, max(pos) - min(neg) + margin))
    return out


class TestBuildSupervision:
    def test_two_groups(self):
        sup = ls.build_supervision([7, 7, 9])
        np.testing.assert_array_equal(sup.m_self, np.eye(3))
        np.testing.assert_array_equal(sup.m_class, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_all_distinct(self):
        sup = ls.build_supervision([3, 1, 2])
        np.testing.assert_array_equal(sup.m_class, sup.m_self)

    def test_all_equal(self):
        sup = ls.build_supervision([5, 5, 5, 5])
        np.testing.assert_array_equal(sup.m_class, np.ones((4, 4)))

    def test_empty_labels(self):
        with pytest.raises(ValueError, match="^labels must be a non-empty 1-D sequence$"):
            ls.build_supervision([])

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=64))
    @settings(max_examples=120, deadline=None)
    def test_properties(self, labels):
        labels = np.array(labels)
        sup = ls.build_supervision(labels)
        np.testing.assert_array_equal(sup.m_self, np.eye(labels.size))
        np.testing.assert_array_equal(sup.m_class, sup.m_class.T)
        assert set(np.unique(sup.m_class)) <= {0.0, 1.0}
        assert (np.diag(sup.m_class) == 1).all()
        assert (sup.m_self <= sup.m_class).all()
        distinct = len(set(labels.tolist())) == labels.size
        assert np.array_equal(sup.m_class, sup.m_self) == distinct
        # invariant under any relabeling bijection
        relabeled = ls.build_supervision(labels * 13 + 5)
        np.testing.assert_array_equal(relabeled.m_class, sup.m_class)


class TestSimilarity:
    def test_standard_basis(self):
        e = np.eye(2)
        sim = ls.similarity(tensor(e), tensor(e), 1.0)
        np.testing.assert_allclose(sim.data, np.eye(2), atol=1e-12)

    def test_temperature_is_inverse_linear(self, rng):
        s, v = tensor(rng.normal(size=(3, 4))), tensor(rng.normal(size=(3, 4)))
        one = ls.similarity(s, v, 1.0).data
        half = ls.similarity(s, v, 0.5).data
        np.testing.assert_allclose(half, 2.0 * one, atol=1e-12)

    def test_brute_force(self, rng):
        s = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 4))
        sim = ls.similarity(tensor(s), tensor(v), 0.07)
        expected = np.zeros((3, 3))
        for m in range(3):
            for n in range(3):
                expected[m, n] = (s[m] / np.linalg.norm(s[m])) @ (v[n] / np.linalg.norm(v[n])) / 0.07
        np.testing.assert_allclose(sim.data, expected, atol=1e-12)

    def test_entries_bounded_by_inverse_temperature(self, rng):
        tau = 0.07
        sim = ls.similarity(tensor(rng.normal(size=(5, 6))), tensor(rng.normal(size=(5, 6))), tau)
        assert np.abs(sim.data).max() <= 1.0 / tau + 1e-9

    def test_trainable_temperature_tensor(self, rng):
        s, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        fixed = ls.similarity(tensor(s), tensor(v), 0.07).data
        log_inv = ad.Tensor(np.array(np.log(1 / 0.07)), requires_grad=True)
        trained = ls.similarity(tensor(s), tensor(v), log_inv)
        np.testing.assert_allclose(trained.data, fixed, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ls.similarity(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 4))), 1.0)


class TestMscLoss:
    def test_saturated_confident_pairs(self):
        sup = ls.build_supervision([0, 1])
        loss = ls.msc_loss(tensor([[10.0, -10.0], [-10.0, 10.0]]), sup)
        assert 0.0 <= float(loss.data) <= 1e-8

    def test_uniform_logits_closed_form(self):
        for b in (2, 3, 5, 8):
            sup = ls.build_supervision(np.arange(b))
            loss = ls.msc_loss(tensor(np.zeros((b, b))), sup)
            assert float(loss.data) == pytest.approx(2.0 * math.log(b), abs=1e-12)

    def test_clip_reduction_identity(self, rng):
        for _ in range(25):
            b = int(rng.integers(2, 9))
            sv = rng.normal(size=(b, b)) * 3.0
            sup = ls.build_supervision(np.arange(b))
            ours = float(ls.msc_loss(tensor(sv), sup).data)
            assert ours == pytest.approx(2.0 * oracle_clip_ce(sv), abs=1e-12)

    def test_multi_positive_oracle(self, rng):
        for _ in range(25):
            b = int(rng.integers(2, 9))
            labels = rng.integers(0, 3, size=b)
            sv = rng.normal(size=(b, b)) * 2.0
            sup = ls.build_supervision(labels)
            expected = oracle_soft_ce(sv, np.eye(b)) + oracle_soft_ce(sv, sup.m_class)
            assert float(ls.msc_loss(tensor(sv), sup).data) == pytest.approx(expected, abs=1e-12)

    def test_direction_modes_average(self, rng):
        b = 5
        sv = rng.normal(size=(b, b))
        sup = ls.build_supervision(rng.integers(0, 2, size=b))
        row = float(ls.msc_loss(tensor(sv), sup, direction="row").data)
        col = float(ls.msc_loss(tensor(sv), sup, direction="col").data)
        both = float(ls.msc_loss(tensor(sv), sup, direction="both").data)
        assert both == pytest.approx((row + col) / 2.0, abs=1e-12)

    def test_unknown_direction_rejected(self):
        sup = ls.build_supervision([0, 0, 1])
        with pytest.raises(ValueError, match="direction must be 'both', 'row' or 'col', got 'diag'"):
            ls.msc_loss(tensor(np.zeros((3, 3))), sup, "diag")

    def test_nonnegative(self, rng):
        for _ in range(10):
            b = int(rng.integers(2, 7))
            sup = ls.build_supervision(rng.integers(0, 3, size=b))
            loss = ls.msc_loss(tensor(rng.normal(size=(b, b)) * 5), sup)
            assert float(loss.data) >= 0.0

    def test_gradient(self, rng):
        labels = np.array([0, 0, 1, 2])

        def f(leaves):
            sim = ls.similarity(leaves[0], leaves[1], 0.07)
            return ls.msc_loss(sim, ls.build_supervision(labels))

        err = ad.finite_difference_check(f, [rng.normal(size=(4, 8)), rng.normal(size=(4, 8))])
        assert err <= 1e-5


class TestHardTriplet:
    def test_separated_batch_is_zero(self):
        feats = tensor([[0.0], [0.1], [1.0], [1.1]])
        loss = ls.hard_triplet_loss(feats, [0, 0, 1, 1], margin=0.3)
        # hardest positive d^2=0.01, hardest negative d^2=0.81 -> hinge at 0
        assert float(loss.data) == 0.0

    def test_near_miss_anchor_value(self):
        feats = np.array([[0.0], [0.7071], [0.6325], [10.0]])
        labels = np.array([0, 0, 1, 1])
        per_anchor = oracle_triplet(feats, labels, 0.3)
        assert per_anchor[0] == pytest.approx(0.4, abs=1e-3)
        loss = ls.hard_triplet_loss(tensor(feats), labels, 0.3)
        assert float(loss.data) == pytest.approx(np.mean(per_anchor), abs=1e-12)

    def test_brute_force_oracle(self, rng):
        for _ in range(30):
            feats = rng.normal(size=(8, 4))
            labels = rng.permutation(np.repeat([0, 1], 4))
            expected = np.mean(oracle_triplet(feats, labels, 0.3))
            got = float(ls.hard_triplet_loss(tensor(feats), labels, 0.3).data)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_margin_separated_clusters_are_zero(self, rng):
        # whenever min inter-class d^2 >= max intra-class d^2 + margin
        for _ in range(10):
            centers = rng.normal(size=(3, 4)) * 10.0
            feats = np.vstack([centers[c] + rng.normal(scale=0.05, size=(3, 4)) for c in range(3)])
            labels = np.repeat([0, 1, 2], 3)
            d = ((feats[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
            same = labels[:, None] == labels[None, :]
            intra = d[same & ~np.eye(9, dtype=bool)].max()
            inter = d[~same].min()
            assert inter >= intra + 0.3  # precondition of the property
            assert float(ls.hard_triplet_loss(tensor(feats), labels, 0.3).data) == 0.0

    def test_translation_invariance(self, rng):
        feats = rng.normal(size=(6, 3))
        labels = np.array([0, 0, 0, 1, 1, 1])
        base = float(ls.hard_triplet_loss(tensor(feats), labels, 0.3).data)
        shifted = float(ls.hard_triplet_loss(tensor(feats + 7.5), labels, 0.3).data)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_permutation_invariance(self, rng):
        feats = rng.normal(size=(6, 3))
        labels = np.array([0, 0, 0, 1, 1, 1])
        perm = rng.permutation(6)
        base = float(ls.hard_triplet_loss(tensor(feats), labels, 0.3).data)
        permuted = float(ls.hard_triplet_loss(tensor(feats[perm]), labels[perm], 0.3).data)
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_degenerate_batch(self):
        with pytest.raises(ls.DegenerateBatch):
            ls.hard_triplet_loss(tensor(np.zeros((3, 2))), [0, 0, 0], 0.3)
        with pytest.raises(ls.DegenerateBatch):
            ls.hard_triplet_loss(tensor(np.zeros((3, 2))), [0, 1, 2], 0.3)

    def test_gradient_away_from_ties(self, rng):
        from molseq.train import _triplet_safe

        feats, labels = _triplet_safe(rng, 8, 4)
        err = ad.finite_difference_check(lambda l: ls.hard_triplet_loss(l[0], labels, 0.3), [feats])
        assert err <= 1e-5


class TestCenterLoss:
    def test_zero_at_centers(self):
        state = ls.CenterState(centers=np.array([[1.0, 2.0], [3.0, 4.0]]))
        feats = tensor([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        assert float(ls.center_loss(feats, [0, 1, 0], state).data) == 0.0

    def test_single_offset(self):
        state = ls.CenterState(centers=np.zeros((1, 2)))
        loss = ls.center_loss(tensor([[1.0, 1.0]]), [0], state)
        assert float(loss.data) == pytest.approx(1.0, abs=1e-15)

    def test_brute_force(self, rng):
        state = ls.CenterState(centers=rng.normal(size=(4, 3)))
        feats = rng.normal(size=(6, 3))
        labels = rng.integers(0, 4, size=6)
        expected = 0.5 * sum(((feats[i] - state.centers[labels[i]]) ** 2).sum() for i in range(6))
        got = float(ls.center_loss(tensor(feats), labels, state).data)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_translation_invariance(self, rng):
        centers = rng.normal(size=(2, 3))
        feats = rng.normal(size=(5, 3))
        labels = np.array([0, 1, 0, 1, 1])
        base = float(ls.center_loss(tensor(feats), labels, ls.CenterState(centers.copy())).data)
        moved = float(ls.center_loss(tensor(feats + 3.3), labels, ls.CenterState(centers + 3.3)).data)
        assert moved == pytest.approx(base, abs=1e-9)

    def test_label_out_of_range(self):
        state = ls.CenterState(np.zeros((2, 3)))
        with pytest.raises(LabelOutOfRange):
            ls.center_loss(tensor(np.zeros((1, 3))), [2], state)

    def test_gradient(self, rng):
        state = ls.CenterState(centers=rng.normal(size=(3, 5)))
        labels = np.array([0, 2, 1, 0])
        err = ad.finite_difference_check(lambda l: ls.center_loss(l[0], labels, state), [rng.normal(size=(4, 5))])
        assert err <= 1e-5


class TestUpdateCenters:
    @pytest.mark.parametrize("labels", [[[0, 0], [3, 3]], [[-1, -1], [0, 0]]])
    def test_label_out_of_range_leaves_centers(self, labels):
        state = ls.CenterState(centers=np.ones((3, 2)))
        with pytest.raises(LabelOutOfRange):
            ls.update_centers(state, np.zeros((4, 2)), labels)
        assert (state.centers == 1.0).all()

    def test_fixed_point_at_center(self):
        state = ls.CenterState(centers=np.array([[2.0, -1.0]]), alpha=0.7)
        ls.update_centers(state, np.array([[2.0, -1.0], [2.0, -1.0]]), [[0, 0]])
        np.testing.assert_array_equal(state.centers, [[2.0, -1.0]])

    def test_single_sample_alpha_one_moves_to_midpoint(self):
        state = ls.CenterState(centers=np.array([[0.0, 0.0]]), alpha=1.0)
        ls.update_centers(state, np.array([[4.0, 2.0]]), [[0]])
        np.testing.assert_allclose(state.centers, [[2.0, 1.0]])

    def test_absent_class_untouched(self, rng):
        state = ls.CenterState(centers=rng.normal(size=(3, 2)))
        before = state.centers[2].copy()
        ls.update_centers(state, rng.normal(size=(4, 2)), [[0, 0], [1, 1]])
        assert (state.centers[2] == before).all()

    def test_contraction_toward_batch_mean(self, rng):
        for _ in range(50):
            alpha = float(rng.uniform(0.05, 1.0))
            state = ls.CenterState(centers=rng.normal(size=(1, 4)), alpha=alpha)
            feats = rng.normal(size=(int(rng.integers(1, 7)), 4))
            mean = feats.mean(axis=0)
            before = np.linalg.norm(state.centers[0] - mean)
            ls.update_centers(state, feats, np.zeros((1, len(feats)), dtype=int))
            after = np.linalg.norm(state.centers[0] - mean)
            assert after <= before + 1e-12

    @pytest.mark.parametrize("feature_rows, labels", [
        (4, [0, 0, 1, 1]),  # one label per row
        (4, [[[0, 0]], [[1, 1]]]),
        (4, [[0, 0, 0], [1, 1, 1]]),  # six labels for four rows
        (6, [[0, 0], [1, 1]]),
    ])
    def test_labels_not_a_pk_array_of_the_batch_rejected(self, feature_rows, labels):
        state = ls.CenterState(centers=np.ones((2, 2)))
        with pytest.raises(ShapeMismatch, match="^update_centers: "):
            ls.update_centers(state, np.zeros((feature_rows, 2)), labels)
        assert (state.centers == 1.0).all()


def scatter_update_centers(centers, features, labels, alpha):
    """Byte reference for the update, from one label per row: one ``np.add.at`` scatter
    over the flattened centers, adding each class's rows in batch order from +0.0."""
    centers = centers.copy()
    sums = np.zeros_like(centers)
    cells = labels[:, None] * centers.shape[1] + np.arange(centers.shape[1])
    np.add.at(sums.reshape(-1), cells.reshape(-1), (centers[labels] - features).reshape(-1))
    counts = np.bincount(labels, minlength=centers.shape[0])
    present = counts > 0
    centers[present] = centers[present] - alpha * (sums[present] / (1.0 + counts[present])[:, None])
    return centers


class TestUpdateCentersPinned:
    """``update_centers`` on PK batches' ``[P, K]`` labels, byte for byte.

    A block sum over a ``[P, K, d]`` view is not the same: at d = 1 and
    K >= 8 numpy sums the contiguous K axis pairwise, not in batch order.
    ``np.array_equal`` would also miss an update that turns -0.0 into +0.0.
    """

    @pytest.mark.parametrize("dim", [1, 2, 64])
    def test_pk_batches_match_the_scatter_bytes(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(150):
            p, k = int(rng.integers(1, 7)), int(rng.integers(1, 17))
            num_classes = p + int(rng.integers(0, 3))
            centers = rng.normal(size=(num_classes, dim)) * 3.0
            features = rng.normal(size=(p * k, dim)) * 3.0
            labels = np.repeat(rng.choice(num_classes, size=p, replace=False), k)
            expected = scatter_update_centers(centers, features, labels, 0.35)
            state = ls.update_centers(ls.CenterState(centers=centers.copy(), alpha=0.35), features,
                                      labels.reshape(p, k))
            assert state.centers.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 9, 16])
    def test_negative_zero_differences(self, k):
        centers = np.full((3, 2), -0.0)
        labels = np.repeat([2, 0], k)
        features = np.zeros((labels.size, 2))  # every difference is -0.0 - +0.0 = -0.0
        expected = scatter_update_centers(centers, features, labels, 0.5)
        state = ls.update_centers(ls.CenterState(centers=centers.copy(), alpha=0.5), features, labels.reshape(2, k))
        assert state.centers.tobytes() == expected.tobytes()
        assert np.signbit(expected).all()


class TestClassificationCe:
    def test_confident_correct(self):
        logits = tensor([[50.0, 0.0], [0.0, 50.0]])
        assert float(ls.classification_ce(logits, [0, 1]).data) <= 1e-8

    def test_uniform_closed_form(self):
        for k in (2, 3, 7):
            loss = ls.classification_ce(tensor(np.zeros((4, k))), [0] * 4)
            assert float(loss.data) == pytest.approx(math.log(k), abs=1e-12)

    def test_brute_force(self, rng):
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        expected = -np.mean([log_softmax(logits[i])[labels[i]] for i in range(5)])
        assert float(ls.classification_ce(tensor(logits), labels).data) == pytest.approx(expected, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            ls.classification_ce(tensor(np.zeros((2, 3))), [0, 3])

    def test_negative_label_is_the_one_named(self):
        with pytest.raises(LabelOutOfRange) as err:
            ls.classification_ce(tensor(np.zeros((3, 3))), [0, -1, 2])
        assert err.value.label == -1

    def test_gradient(self, rng):
        labels = np.array([0, 2, 1, 0])
        err = ad.finite_difference_check(lambda l: ls.classification_ce(l[0], labels), [rng.normal(size=(4, 3))])
        assert err <= 1e-5


class TestTotalLoss:
    def make(self, msc=1.0, triplet=1.0, center=10.0, cls=1.0):
        return {"msc": tensor(msc), "triplet": tensor(triplet), "center": tensor(center), "cls": tensor(cls)}

    def test_all_weights_zero(self):
        total, _ = ls.total_loss(self.make(), {"msc": 0, "triplet": 0, "center": 0, "cls": 0})
        assert float(total.data) == 0.0

    def test_default_weighting(self):
        total, report = ls.total_loss(self.make(1, 1, 10, 1), TrainConfig().weights())
        assert float(total.data) == pytest.approx(4.0, abs=1e-12)
        assert report == {"msc": 1.0, "triplet": 1.0, "center": 10.0, "cls": 1.0, "total": 4.0}

    def test_affine_in_center_weight(self):
        comp = self.make(0.3, 0.7, 2.5, 1.9)
        base, _ = ls.total_loss(comp, TrainConfig(w_center=0.1).weights())
        comp2 = self.make(0.3, 0.7, 2.5, 1.9)
        doubled, _ = ls.total_loss(comp2, TrainConfig(w_center=0.2).weights())
        assert float(doubled.data) - float(base.data) == pytest.approx(0.1 * 2.5, abs=1e-12)

    def test_missing_component_reported_as_zero(self):
        components = {"triplet": tensor(2.0), "center": None, "cls": tensor(1.0)}
        total, report = ls.total_loss(components, TrainConfig().weights())
        assert report["msc"] == 0.0 and report["center"] == 0.0
        assert float(total.data) == pytest.approx(3.0)

    def test_non_finite_component(self):
        bad = tensor(1.0)
        bad.data = np.array(np.inf)  # bypass op-boundary checks on purpose
        with pytest.raises(NonFiniteValue) as err:
            ls.total_loss({"msc": bad}, TrainConfig().weights())
        assert err.value.op == "weighted_sum"

    def test_non_finite_component_at_weight_zero(self):
        # 0 * inf is NaN, so weighted_sum's guard raises even for a term that adds nothing.
        bad = tensor(1.0)
        bad.data = np.array(np.inf)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue) as err:
            ls.total_loss({"msc": bad}, {**TrainConfig().weights(), "msc": 0.0})
        assert err.value.op == "weighted_sum"

    def test_gradient_flows_through_weights(self, rng):
        weights = {"msc": 0.0, "triplet": 0.0, "center": 0.3, "cls": 0.0}
        state = ls.CenterState(centers=rng.normal(size=(2, 3)))
        labels = np.array([0, 1, 1])

        def f(leaves):
            comps = {"center": ls.center_loss(leaves[0], labels, state)}
            return ls.total_loss(comps, weights)[0]

        assert ad.finite_difference_check(f, [rng.normal(size=(3, 3))]) <= 1e-5
