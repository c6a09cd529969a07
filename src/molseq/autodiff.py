"""Dense float64 tensors with reverse-mode differentiation.

The op set closes over both encoders and every training loss.  It has a
few primitive ops (matmul, broadcasted add, relu, tanh and scalar sum_) and the
fused nodes that the training step is built from: an affine layer
(``linear``), temperature-scaled cosine logits, a soft-target
cross-entropy serving both alignment directions and the classifier, a
batch-hard triplet hinge, a half squared error against constant targets
and a weighted sum.  Each fused backward replays the arithmetic, and the
gradient accumulation order, of the primitive graph it replaces, so
gradients are bitwise equal to the unfused ones; the tests build those
unfused graphs from reference primitives on this module's helpers.

A graph is built fresh for every evaluation and traversed exactly once by
backward(); tensors reachable from a graph are not mutated in place
before backward() has run (an SGD step then moves its parameter leaves).

What a batch's label pattern alone fixes can be built once and passed in:
``soft_targets`` normalizes target matrices, in one direction or both,
into the one form ``soft_target_ce`` takes, and ``triplet_masks`` gives
``batch_hard_triplet`` its positive and negative masks.  Neither is an
op, so neither is in ``__all__``; the ops cache nothing.

Non-finite values are caught where they can enter a graph: leaves and
constants, cosine_logits, the loss nodes and weighted_sum raise
NonFiniteValue.  The other ops (matmul, add, relu, tanh, sum_ and linear)
skip the scan; an overflow there reaches the next loss node, which raises
before backward() runs.  They all pass a NaN on: relu maps it to NaN, not
to 0.0, so a NaN that linear makes from two overflowing products (inf - inf)
still reaches the guard.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateBatch, NonFiniteValue, NonScalarLoss, RepeatedBackward, ShapeMismatch

__all__ = [
    "Tensor",
    "constant",
    "matmul",
    "add",
    "relu",
    "tanh",
    "sum_",
    "linear",
    "cosine_logits",
    "soft_target_ce",
    "batch_hard_triplet",
    "half_sq_error",
    "weighted_sum",
    "backward",
    "finite_difference_check",
]

# Rows with L2 norm below this are passed through cosine_logits'
# normalization unchanged (and reported via Tensor.guarded_rows).
NORM_GUARD = 1e-12


class Tensor:
    """One node of the computation graph.

    Holds the cached forward value (a float64 ndarray), the gradient
    accumulator filled in by backward(), and references to the parent
    nodes this value was computed from.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "op",
        "guarded_rows",
        "_parents",
        "_backward_fn",
        "_backward_done",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        op: str = "leaf",
        parents: Sequence["Tensor"] = (),
        backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
        check_finite: bool = True,
    ) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if check_finite and not np.isfinite(arr).all():
            raise NonFiniteValue(op)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self.guarded_rows: tuple[int, ...] = ()
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False, op="const")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _node(op, data, parents, backward_fn, check_finite: bool = False) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, op=op, parents=parents, backward_fn=backward_fn,
                  check_finite=check_finite)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeMismatch(op, (a.shape, b.shape)) from None


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch("matmul", (a.shape, b.shape))

    def bwd(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _node("matmul", a.data @ b.data, (a, b), bwd)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("add", a, b)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node("add", a.data + b.data, (a, b), bwd)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0
    # maximum passes a NaN on, so the next loss node raises on it (a where on the mask would zero it).
    return _node("relu", np.maximum(x.data, 0.0), (x,), lambda g: (g * mask,))


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    t = np.tanh(x.data)
    return _node("tanh", t, (x,), lambda g: (g * (1.0 - t * t),))


def _require_2d(op: str, x: Tensor) -> None:
    if x.data.ndim != 2:
        raise ShapeMismatch(op, (x.shape,))


def _log_softmax_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row log-softmax of x and its exponential (the softmax itself)."""
    # Max subtraction keeps exp() in range for temperature-scaled logits.
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    return out, np.exp(out)


def _log_softmax_rows_bwd(g: np.ndarray, soft: np.ndarray) -> np.ndarray:
    return g - soft * g.sum(axis=1, keepdims=True)


def sum_(x) -> Tensor:
    x = _as_tensor(x)
    return _node("sum", x.data.sum(), (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


def _l2_normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit rows of x, the divisors used, and the mask of guarded rows."""
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    guarded = norms[:, 0] < NORM_GUARD
    safe = np.where(guarded[:, None], 1.0, norms)
    return x / safe, safe, guarded


def _l2_normalize_bwd(g: np.ndarray, y: np.ndarray, safe: np.ndarray, guarded: np.ndarray) -> np.ndarray:
    dot = (g * y).sum(axis=1, keepdims=True)
    gx = (g - y * dot) / safe
    if guarded.any():
        gx[guarded] = g[guarded]
    return gx


def _sq_dists(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped squared distances between the rows of x and y, and where the clamp is off."""
    xs = (x * x).sum(axis=1, keepdims=True)
    ys = xs if y is x else (y * y).sum(axis=1, keepdims=True)
    raw = xs + ys.T - 2.0 * (x @ y.T)
    # Clamp the tiny negatives the expansion can produce; gradient is cut
    # where the clamp engages (the true distance there is 0).
    mask = raw > 0
    return np.where(mask, raw, 0.0), mask


def _sq_dists_bwd(g: np.ndarray, x: np.ndarray, y: np.ndarray, mask: np.ndarray):
    gm = g * mask
    gx = 2.0 * (gm.sum(axis=1, keepdims=True) * x - gm @ y)
    gy = 2.0 * (gm.sum(axis=0)[:, None] * y - gm.T @ x)
    return gx, gy


# ---------------------------------------------------------------------------
# Fused nodes.  Each one stands for a chain of primitives and replays
# that chain's forward and backward arithmetic operation for operation,
# including the order in which gradients were accumulated.
# ---------------------------------------------------------------------------


def linear(x, w, b) -> Tensor:
    """Affine layer x @ w + b for x [m,k], w [k,n] and a row bias b [n]."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatch("linear", (x.shape, w.shape, b.shape))

    def bwd(g):
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    out = x.data @ w.data
    out += b.data
    return _node("linear", out, (x, w, b), bwd)


def cosine_logits(s, v, temperature) -> Tensor:
    """Cosine similarities of the rows of s and v [b,d], times an inverse temperature.

    ``temperature`` is either a positive float tau (logits scaled by 1/tau)
    or a trainable 0-d tensor holding log(1/tau) (scaled by its exp).  Rows
    below the L2 guard pass through unnormalized; ``guarded_rows`` lists
    the batch positions whose s row or v row was guarded.
    """
    s, v = _as_tensor(s), _as_tensor(v)
    if s.data.ndim != 2 or s.shape != v.shape:
        raise ShapeMismatch("cosine_logits", (s.shape, v.shape))
    parents = (s, v)
    if isinstance(temperature, Tensor):
        if temperature.shape != ():
            raise ShapeMismatch("cosine_logits", (s.shape, temperature.shape))
        inv_temp = np.exp(temperature.data)
        parents += (temperature,)
    elif temperature > 0:
        inv_temp = float(1.0 / temperature)
    else:
        raise ValueError(f"temperature must be positive, got {temperature}")
    ys, safe_s, guard_s = _l2_normalize(s.data)
    yv, safe_v, guard_v = _l2_normalize(v.data)
    yv_t = yv.T.copy()
    raw = ys @ yv_t

    def bwd(g):
        # The operands and layouts of the unfused matmul(ns, transpose(nv)) backward.
        g_raw = g * inv_temp
        gs = _l2_normalize_bwd(g_raw @ yv_t.T, ys, safe_s, guard_s) if s.requires_grad else None
        gv = _l2_normalize_bwd((ys.T @ g_raw).T.copy(), yv, safe_v, guard_v) if v.requires_grad else None
        if len(parents) == 2:
            return gs, gv
        return gs, gv, _unbroadcast(g * raw, ()) * inv_temp

    out = _node("cosine_logits", raw * inv_temp, parents, bwd, check_finite=True)
    out.guarded_rows = tuple(int(i) for i in np.flatnonzero(guard_s | guard_v))
    return out


class SoftTargets(NamedTuple):
    """Target matrices as ``soft_target_ce`` reads them, from ``soft_targets``.

    ``rows`` holds each target divided by its row sums, ``cols`` the
    transpose of each target divided by its column sums; a direction not
    used is None.
    """

    rows: tuple[np.ndarray, ...] | None
    cols: tuple[np.ndarray, ...] | None


def soft_targets(targets: Sequence[np.ndarray], direction: str) -> SoftTargets:
    """Normalize 0/1 target matrices for ``soft_target_ce`` in ``direction``: "row", "col" or "both"."""
    if direction not in ("both", "row", "col"):
        raise ValueError(f"direction must be 'both', 'row' or 'col', got {direction!r}")
    targets = [np.asarray(t, dtype=np.float64) for t in targets]
    rows = tuple(t / t.sum(axis=1, keepdims=True) for t in targets) if direction != "col" else None
    cols = tuple((t / t.sum(axis=0, keepdims=True)).T for t in targets) if direction != "row" else None
    return SoftTargets(rows, cols)


def soft_target_ce(logits, targets: SoftTargets) -> Tensor:
    """Summed soft-target cross-entropies of one logit matrix against several targets.

    Each target is a per-row ("row") or per-column ("col") distribution;
    the cross-entropy against it is the mean over rows (columns) of
    -sum(target * log_softmax).  With both, the two directions are
    averaged.  A one-hot row target is the classification cross-entropy,
    and is its own row distribution.  Each direction's log-softmax is
    computed once and serves every target.
    """
    x = _as_tensor(logits)
    _require_2d("soft_target_ce", x)
    rows, cols = targets.rows is not None, targets.cols is not None
    both = rows and cols
    m, n = x.shape
    row_ts, col_ts = targets.rows or (), targets.cols or ()
    count = max(len(row_ts), len(col_ts))
    if not count:
        raise ValueError("soft_target_ce needs at least one target matrix")
    if ((both and len(row_ts) != len(col_ts)) or any(t.shape != (m, n) for t in row_ts)
            or any(t.shape != (n, m) for t in col_ts)):
        raise ShapeMismatch("soft_target_ce", (x.shape, *(t.shape for t in row_ts + col_ts)))
    if rows:
        log_r, soft_r = _log_softmax_rows(x.data)
    if cols:
        log_c, soft_c = _log_softmax_rows(x.data.T.copy())

    total = None
    for i in range(count):
        terms = []
        if rows:
            terms.append((log_r * row_ts[i]).sum() * float(-1.0 / m))
        if cols:
            terms.append((log_c * col_ts[i]).sum() * float(-1.0 / n))
        ce = (terms[0] + terms[1]) * 0.5 if both else terms[0]
        total = ce if total is None else total + ce

    def bwd(g):
        g_term = g * 0.5 if both else g
        g_row, g_col = g_term * float(-1.0 / m), g_term * float(-1.0 / n)
        # C order gives the layout the unfused graph's (broadcast gradient *
        # target) product had, so the row sums below add in the same order.
        parts = []
        for i in range(count):
            if rows:
                parts.append(_log_softmax_rows_bwd(np.multiply(g_row, row_ts[i], order="C"), soft_r))
            if cols:
                g_log = np.multiply(g_col, col_ts[i], order="C")
                parts.append(_log_softmax_rows_bwd(g_log, soft_c).T.copy())
        # The unfused graph accumulated these in reverse: the last target's
        # column gradient first, the first target's row gradient last.
        grad = parts.pop()
        while parts:
            grad = grad + parts.pop()
        return (grad,)

    return _node("soft_target_ce", total, (x,), bwd, check_finite=True)


def triplet_masks(labels) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative masks of a batch's labels, for ``batch_hard_triplet``.

    Raises ``DegenerateBatch`` unless every anchor has a positive and a negative.
    """
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(labels.size, dtype=bool)
    neg_mask = ~same
    if not pos_mask.any(axis=1).all() or not neg_mask.any(axis=1).all():
        raise DegenerateBatch("every anchor needs at least one positive and one negative")
    return pos_mask, neg_mask


def _mine_batch_hard(dists: np.ndarray, masks: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Batch-hard indices: farthest positive, nearest negative per anchor, under ``triplet_masks``."""
    pos_mask, neg_mask = masks
    hard_pos = np.where(pos_mask, dists, -np.inf).argmax(axis=1)
    hard_neg = np.where(neg_mask, dists, np.inf).argmin(axis=1)
    return hard_pos, hard_neg


def batch_hard_triplet(x, labels, margin: float, masks: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Mean over anchors of max(0, d(a, hardest pos) - d(a, hardest neg) + margin).

    Distances are squared Euclidean between the rows of x.  Mining happens
    outside the graph; the hinge differentiates through the two gathered
    distances of each anchor only.  ``masks`` may hold ``triplet_masks(labels)``
    built once for every batch with the same label pattern.
    """
    x = _as_tensor(x)
    _require_2d("batch_hard_triplet", x)
    labels = np.asarray(labels)
    b = x.shape[0]
    if labels.shape != (b,) or (masks is not None and any(mk.shape != (b, b) for mk in masks)):
        raise ShapeMismatch("batch_hard_triplet", (x.shape, labels.shape, *(mk.shape for mk in masks or ())))
    dists, mask = _sq_dists(x.data, x.data)
    hard_pos, hard_neg = _mine_batch_hard(dists, triplet_masks(labels) if masks is None else masks)
    anchors = np.arange(labels.size)
    slack = dists[anchors, hard_pos] - dists[anchors, hard_neg] + margin
    active = slack > 0
    hinge = np.where(active, slack, 0.0)

    def bwd(g):
        g_hinge = (g / hinge.size) * active
        g_dists = np.zeros_like(dists)
        g_dists[anchors, hard_pos] = g_hinge
        # 0.0 - g, not -g: where g is 0 the unfused graph summed to +0.0.
        g_dists[anchors, hard_neg] -= g_hinge
        # x feeds both sides of the distance matrix: two contributions.
        return _sq_dists_bwd(g_dists, x.data, x.data, mask)

    return _node("batch_hard_triplet", hinge.mean(), (x, x), bwd, check_finite=True)


def half_sq_error(x, target) -> Tensor:
    """0.5 * sum((x - target)**2), with target held constant."""
    x = _as_tensor(x)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != x.shape:
        raise ShapeMismatch("half_sq_error", (x.shape, target.shape))
    diff = x.data - target

    def bwd(g):
        # diff was both factors of the unfused diff * diff: two gradients, summed.
        g_diff = (g * 0.5) * diff
        return (g_diff + g_diff,)

    return _node("half_sq_error", (diff * diff).sum() * 0.5, (x,), bwd, check_finite=True)


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """sum_i weights[i] * terms[i] over scalar tensors, summed left to right."""
    terms = tuple(_as_tensor(t) for t in terms)
    weights = tuple(float(w) for w in weights)
    if not terms or len(terms) != len(weights):
        raise ValueError("weighted_sum needs at least one term and one weight per term")
    if any(t.shape != () for t in terms):
        raise ShapeMismatch("weighted_sum", tuple(t.shape for t in terms))
    total = None
    for t, w in zip(terms, weights):
        total = t.data * w if total is None else total + t.data * w
    return _node("weighted_sum", total, terms, lambda g: tuple(g * w for w in weights), check_finite=True)


def _toposort(root: Tensor) -> list[Tensor]:
    """Depth-first post-order of root's graph, parents visited in order.

    Subtrees that need no gradient are skipped: no node in them can
    receive one.
    """
    order: list[Tensor] = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every reachable node.

    Each node is visited exactly once, in reverse topological order.
    Calling backward twice on the same graph is an error: accumulators
    would silently double.
    """
    if loss.data.shape != ():
        raise NonScalarLoss(f"backward requires a scalar, got shape {loss.shape}")
    if loss._backward_done:
        raise RepeatedBackward("backward already ran on this graph; build a new graph to run it again")
    loss._backward_done = True
    order = _toposort(loss)
    loss.grad = np.ones(())
    for node in reversed(order):
        if node.grad is None or node._backward_fn is None:
            continue
        for parent, g in zip(node._parents, node._backward_fn(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if g.shape != parent.shape:
                raise ShapeMismatch(f"backward[{node.op}]", (g.shape, parent.shape))
            parent.grad = g if parent.grad is None else parent.grad + g


def finite_difference_check(
    f: Callable[[list[Tensor]], Tensor],
    params: Sequence[np.ndarray],
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic function building a scalar graph from a
    list of leaf tensors.  The relative error for each coordinate uses the
    denominator max(|analytic|, |numeric|, 1e-8).
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError(f"eps must be in (0, 1e-2], got {eps}")
    values = [np.array(p, dtype=np.float64) for p in params]
    leaves = [Tensor(v, requires_grad=True) for v in values]
    out = f(leaves)
    if out.data.shape != ():
        raise NonScalarLoss("finite_difference_check requires a scalar-valued f")
    backward(out)
    analytic = [np.zeros_like(v) if l.grad is None else l.grad for v, l in zip(values, leaves)]

    def evaluate(vals: list[np.ndarray]) -> float:
        return float(f([Tensor(v) for v in vals]).data)

    worst = 0.0
    for k, base in enumerate(values):
        flat = base.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = evaluate(values)
            flat[i] = orig - eps
            lo = evaluate(values)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = analytic[k].ravel()[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
