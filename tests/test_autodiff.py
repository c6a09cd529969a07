import numpy as np
import pytest

from molseq import autodiff as ad
from molseq.errors import NonFiniteValue, NonScalarLoss, RepeatedBackward, ShapeMismatch
from molseq.train import _triplet_safe

import reference as ref


def leaf(values):
    return ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestForward:
    def test_matmul(self):
        out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0, 4.0]]))

    def test_pairwise_345(self):
        out = ref.pairwise_sq_dists(ad.constant([[0.0, 0.0]]), ad.constant([[3.0, 4.0]]))
        assert out.data.tolist() == [[25.0]]

    def test_pairwise_self_zero_diag_symmetric(self, rng):
        x = rng.normal(size=(6, 4))
        d = ref.pairwise_sq_dists(ad.constant(x), ad.constant(x)).data
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)
        np.testing.assert_allclose(d, d.T, atol=1e-12)

    def test_l2_normalize_rows_unit_norm(self, rng):
        x = rng.normal(size=(5, 8))
        out = ref.l2_normalize_rows(ad.constant(x))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)
        assert out.guarded_rows == ()

    def test_l2_normalize_guard(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = ref.l2_normalize_rows(ad.constant(x))
        np.testing.assert_allclose(out.data[0], [0.6, 0.8])
        assert out.data[1].tolist() == [0.0, 0.0]
        assert out.guarded_rows == (1,)

    def test_leaf_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            ad.Tensor(np.array([np.nan]))

    def test_broadcast_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 4))))


class TestBackward:
    def test_sum_of_squares(self):
        x = leaf([1.0, 2.0, 3.0])
        ad.backward(ad.sum_(ref.mul(x, x)))
        assert x.grad.tolist() == [2.0, 4.0, 6.0]

    def test_constant_path_gives_zero_grad(self):
        x = leaf([1.0, 2.0])
        ad.backward(ref.scale(ad.sum_(x), 0.0))
        assert x.grad.tolist() == [0.0, 0.0]

    def test_non_scalar_loss(self):
        with pytest.raises(NonScalarLoss):
            ad.backward(leaf([1.0, 2.0]))

    def test_repeated_backward_raises(self):
        x = leaf([1.0])
        loss = ad.sum_(ref.mul(x, x))
        ad.backward(loss)
        with pytest.raises(RepeatedBackward):
            ad.backward(loss)

    def test_gradient_of_wrong_shape_raises_naming_the_op(self):
        x = leaf([1.0, 2.0, 3.0])
        bad = ad.Tensor(x.data, requires_grad=True, op="misshapen", parents=(x,),
                        backward_fn=lambda g: (np.ones((2, 2)),))
        with pytest.raises(ShapeMismatch) as err:
            ad.backward(ad.sum_(bad))
        assert err.value.op == "backward[misshapen]"
        assert err.value.shapes == ((2, 2), (3,))
        assert x.grad is None

    def test_grad_accumulates_on_reuse(self):
        x = leaf([3.0])
        loss = ad.add(ad.sum_(ref.mul(x, x)), ad.sum_(x))  # x^2 + x
        ad.backward(loss)
        assert x.grad.tolist() == [7.0]

    def test_linearity(self, rng):
        x0 = rng.normal(size=(3, 4))

        def grad_of(fn):
            x = leaf(x0)
            ad.backward(fn(x))
            return x.grad

        f = lambda x: ad.sum_(ref.mul(x, x))
        g = lambda x: ad.sum_(ad.tanh(x))
        combined = grad_of(lambda x: ad.add(ref.scale(f(x), 2.5), ref.scale(g(x), -1.5)))
        expected = 2.5 * grad_of(f) - 1.5 * grad_of(g)
        np.testing.assert_allclose(combined, expected, atol=1e-12)

    def test_row_broadcast_grad(self):
        x = leaf(np.ones((3, 2)))
        b = leaf(np.zeros(2))
        ad.backward(ad.sum_(ad.add(x, b)))
        assert b.grad.tolist() == [3.0, 3.0]
        assert x.grad.tolist() == np.ones((3, 2)).tolist()


class TestFusedMatchesComposed:
    """Each fused node equals, bit for bit, the primitive graph it replaces."""

    @staticmethod
    def grads(build, values):
        leaves = [leaf(v) for v in values]
        out = build(leaves)
        ad.backward(out)
        return out.data, [l.grad for l in leaves]

    def assert_same(self, fused, composed, values):
        out_f, grads_f = self.grads(fused, values)
        out_c, grads_c = self.grads(composed, values)
        assert np.array_equal(out_f, out_c)
        for gf, gc in zip(grads_f, grads_c):
            assert np.array_equal(gf, gc)

    def test_linear(self, rng):
        values = [rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=(3,)), rng.normal(size=(5, 3))]
        self.assert_same(lambda l: ad.sum_(ref.mul(ad.linear(l[0], l[1], l[2]), l[3])),
                         lambda l: ad.sum_(ref.mul(ad.add(ad.matmul(l[0], l[1]), l[2]), l[3])), values)

    @staticmethod
    def composed_cosine(s, v, temperature):
        raw = ad.matmul(ref.l2_normalize_rows(s), ref.transpose(ref.l2_normalize_rows(v)))
        if isinstance(temperature, ad.Tensor):
            return ref.mul(raw, ref.exp(temperature))
        return ref.scale(raw, 1.0 / temperature)

    def test_cosine_logits(self, rng):
        values = [rng.normal(size=(6, 5)), rng.normal(size=(6, 5)), rng.normal(size=(6, 6))]
        self.assert_same(lambda l: ad.sum_(ref.mul(ad.cosine_logits(l[0], l[1], 0.07), l[2])),
                         lambda l: ad.sum_(ref.mul(self.composed_cosine(l[0], l[1], 0.07), l[2])), values)
        values.append(np.array(np.log(1 / 0.07)))
        self.assert_same(lambda l: ad.sum_(ref.mul(ad.cosine_logits(l[0], l[1], l[3]), l[2])),
                         lambda l: ad.sum_(ref.mul(self.composed_cosine(l[0], l[1], l[3]), l[2])), values)

    def test_cosine_logits_reports_guarded_rows(self):
        s = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        v = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
        assert ad.cosine_logits(ad.constant(s), ad.constant(v), 1.0).guarded_rows == (1, 2)

    @staticmethod
    def composed_soft_ce(x, targets, direction):
        total = None
        for t in targets:
            terms = []
            if direction in ("both", "row"):
                row_t = t / t.sum(axis=1, keepdims=True)
                terms.append(ref.scale(ad.sum_(ref.mul(ref.row_log_softmax(x), ad.constant(row_t))), -1.0 / x.shape[0]))
            if direction in ("both", "col"):
                col_t = (t / t.sum(axis=0, keepdims=True)).T
                picked = ad.sum_(ref.mul(ref.row_log_softmax(ref.transpose(x)), ad.constant(col_t)))
                terms.append(ref.scale(picked, -1.0 / x.shape[1]))
            ce = terms[0] if len(terms) == 1 else ref.scale(ad.add(terms[0], terms[1]), 0.5)
            total = ce if total is None else ad.add(total, ce)
        return total

    @pytest.mark.parametrize("direction", ["both", "row", "col"])
    def test_soft_target_ce(self, rng, direction):
        labels = rng.integers(0, 3, size=16)
        targets = (np.eye(16), (labels[:, None] == labels[None, :]).astype(float))
        values = [rng.normal(size=(16, 16)) * 5.0]
        self.assert_same(lambda l: ad.soft_target_ce(l[0], ad.soft_targets(targets, direction)),
                         lambda l: self.composed_soft_ce(l[0], targets, direction), values)

    def test_soft_target_ce_one_hot(self, rng):
        targets = (np.eye(5)[rng.integers(0, 5, size=12)],)
        self.assert_same(lambda l: ad.soft_target_ce(l[0], ad.soft_targets(targets, "row")),
                         lambda l: self.composed_soft_ce(l[0], targets, "row"), [rng.normal(size=(12, 5))])

    def test_soft_targets_unknown_direction(self):
        with pytest.raises(ValueError, match="direction must be 'both', 'row' or 'col', got 'diag'"):
            ad.soft_targets((np.eye(3),), "diag")

    def test_batch_hard_triplet(self, rng):
        labels = np.repeat(np.arange(4), 4)
        values = [rng.normal(size=(16, 6))]

        def composed(l):
            dists = ref.pairwise_sq_dists(l[0], l[0])
            pos, neg = ad._mine_batch_hard(dists.data, ad.triplet_masks(labels))
            pos_sel, neg_sel = np.zeros((16, 16)), np.zeros((16, 16))
            pos_sel[np.arange(16), pos] = 1.0
            neg_sel[np.arange(16), neg] = 1.0
            pos_d = ref.sum_axis(ref.mul(dists, ad.constant(pos_sel)), 1)
            neg_d = ref.sum_axis(ref.mul(dists, ad.constant(neg_sel)), 1)
            return ref.mean(ad.relu(ad.add(ref.sub(pos_d, neg_d), ad.constant(1.0))))

        self.assert_same(lambda l: ad.batch_hard_triplet(l[0], labels, 1.0), composed, values)

    def test_half_sq_error(self, rng):
        target = rng.normal(size=(6, 3))

        def composed(l):
            diff = ref.sub(l[0], ad.constant(target))
            return ref.scale(ad.sum_(ref.mul(diff, diff)), 0.5)

        self.assert_same(lambda l: ad.half_sq_error(l[0], target), composed, [rng.normal(size=(6, 3))])

    def test_weighted_sum(self, rng):
        weights = [0.3, 1.7, 0.1]

        def terms(l):
            return [ad.sum_(ref.mul(l[0], l[0])), ad.sum_(ad.tanh(l[0])), ad.sum_(ref.exp(l[1]))]

        def composed(l):
            total = None
            for term, w in zip(terms(l), weights):
                total = ref.scale(term, w) if total is None else ad.add(total, ref.scale(term, w))
            return total

        values = [rng.normal(size=(4, 3)), rng.normal(size=(2, 2))]
        self.assert_same(lambda l: ad.weighted_sum(terms(l), weights), composed, values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteGuard:
    def test_linear_relu_tanh_skip_the_scan(self):
        out = ad.linear(ad.constant([[1e200, 1e200]]), ad.constant(np.full((2, 2), 1e200)), ad.constant([0.0, 0.0]))
        mixed = ad.linear(out, ad.constant([[1.0], [-1.0]]), ad.constant([0.0]))
        assert np.isinf(out.data).all() and np.isnan(mixed.data).all()
        assert np.isinf(ad.relu(out).data).all()
        assert np.isnan(ad.tanh(mixed).data).all()

    def test_fused_loss_node_raises(self):
        inf_rows = ad.linear(ad.constant([[1e200], [1e200]]), ad.constant([[1e200, 1.0]]), ad.constant([0.0, 0.0]))
        with pytest.raises(NonFiniteValue):
            ad.half_sq_error(inf_rows, np.zeros((2, 2)))
        with pytest.raises(NonFiniteValue):
            ad.soft_target_ce(inf_rows, ad.soft_targets((np.eye(2),), "both"))


# Fixed inputs for the fused loss nodes.
CLASS_TARGET = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
ONE_HOT = np.eye(3)[[0, 2, 1, 0]]
ZERO_FIRST_ROW = np.vstack([np.zeros(4), np.ones((2, 4))])
TRIPLET_FEATS, TRIPLET_LABELS = _triplet_safe(np.random.default_rng(7), 8, 4)
CENTER_TARGET = np.arange(12.0).reshape(4, 3) / 7.0


def _alignment(direction):
    return lambda l: ad.soft_target_ce(l[0], ad.soft_targets((np.eye(4), CLASS_TARGET), direction))


# name -> (scalar function of the leaves, leaf shapes); an ndarray in place
# of a shape is used as that leaf's value as is.
FD_CASES = {
    "matmul": (lambda l: ad.sum_(ad.matmul(l[0], l[1])), [(3, 4), (4, 2)]),
    "add_row": (lambda l: ad.sum_(ref.mul(ad.add(l[0], l[1]), l[0])), [(3, 4), (4,)]),
    "sub": (lambda l: ad.sum_(ref.mul(ref.sub(l[0], l[1]), ref.sub(l[0], l[1]))), [(3, 4), (3, 4)]),
    "mul_scalar": (lambda l: ad.sum_(ref.mul(l[0], l[1])), [(3, 4), ()]),
    "relu": (lambda l: ad.sum_(ad.relu(l[0])), [(5, 5)]),
    "tanh": (lambda l: ad.sum_(ref.mul(ad.tanh(l[0]), l[0])), [(4, 3)]),
    "exp": (lambda l: ad.sum_(ref.exp(l[0])), [(3, 3)]),
    "row_log_softmax": (lambda l: ad.sum_(ref.mul(ref.row_log_softmax(l[0]), l[0])), [(4, 5)]),
    "sum_axis0": (lambda l: ad.sum_(ref.mul(ref.sum_axis(l[0], 0), ref.sum_axis(l[0], 0))), [(3, 4)]),
    "mean_axis1": (lambda l: ad.sum_(ref.mul(ref.mean(l[0], axis=1), ref.mean(l[0], axis=1))), [(3, 4)]),
    "mean_full": (lambda l: ref.mean(ref.mul(l[0], l[0])), [(4, 4)]),
    "l2_normalize": (lambda l: ad.sum_(ref.mul(ref.l2_normalize_rows(l[0]), l[1])), [(4, 6), (4, 6)]),
    "pairwise": (lambda l: ad.sum_(ref.mul(ref.pairwise_sq_dists(l[0], l[1]), l[2])), [(3, 4), (5, 4), (3, 5)]),
    "transpose": (lambda l: ad.sum_(ad.matmul(ref.transpose(l[0]), l[0])), [(3, 4)]),
    "scale": (lambda l: ref.scale(ad.sum_(l[0]), -2.5), [(3, 3)]),
    "linear": (lambda l: ad.sum_(ref.mul(ad.linear(l[0], l[1], l[2]), l[3])), [(3, 4), (4, 2), (2,), (3, 2)]),
    "cosine_logits_float": (
        lambda l: ad.sum_(ref.mul(ad.cosine_logits(l[0], l[1], 0.5), l[2])), [(3, 4), (3, 4), (3, 3)]),
    "cosine_logits_tensor": (
        lambda l: ad.sum_(ref.mul(ad.cosine_logits(l[0], l[1], l[2]), l[3])), [(3, 4), (3, 4), (), (3, 3)]),
    "cosine_logits_guarded_row": (
        lambda l: ad.sum_(ref.mul(ad.cosine_logits(ref.mul(l[0], ZERO_FIRST_ROW), ref.mul(l[1], ZERO_FIRST_ROW), 0.5),
                                 l[2])),
        [(3, 4), (3, 4), (3, 3)]),
    "soft_target_ce_both": (_alignment("both"), [(4, 4)]),
    "soft_target_ce_row": (_alignment("row"), [(4, 4)]),
    "soft_target_ce_col": (_alignment("col"), [(4, 4)]),
    "soft_target_ce_one_hot": (lambda l: ad.soft_target_ce(l[0], ad.soft_targets((ONE_HOT,), "row")), [(4, 3)]),
    "batch_hard_triplet": (lambda l: ad.batch_hard_triplet(l[0], TRIPLET_LABELS, 0.3), [TRIPLET_FEATS]),
    "half_sq_error": (lambda l: ad.half_sq_error(l[0], CENTER_TARGET), [(4, 3)]),
    "weighted_sum": (
        lambda l: ad.weighted_sum([ad.sum_(ref.mul(l[0], l[0])), ad.sum_(ad.tanh(l[1])), ad.sum_(l[0])],
                                  [0.5, -1.5, 2.0]),
        [(3, 2), (2, 2)]),
}


@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_op_gradients_match_finite_differences(name, rng):
    fn, shapes = FD_CASES[name]
    params = [s if isinstance(s, np.ndarray) else rng.normal(size=s) for s in shapes]
    assert ad.finite_difference_check(fn, params) <= 1e-5


class TestFiniteDifferenceCheck:
    def test_square_closed_form(self):
        # d/dx x^2 at 3 is 6; analytic and numeric agree to ~1e-8
        err = ad.finite_difference_check(lambda l: ad.sum_(ref.mul(l[0], l[0])), [np.array([3.0])])
        assert err <= 1e-8

    def test_constant_function(self):
        err = ad.finite_difference_check(lambda l: ref.scale(ad.sum_(l[0]), 0.0), [np.array([1.0, 2.0])])
        assert err == 0.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            ad.finite_difference_check(lambda l: ad.sum_(l[0]), [np.array([1.0])], eps=0.5)
