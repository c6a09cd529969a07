"""Reference code that only the tests use.

The primitive autodiff ops here are the graphs the fused nodes of
``molseq.autodiff`` replace; ``TestFusedMatchesComposed`` builds each fused
node's unfused counterpart from them and checks that both agree bit for
bit.  They reuse the private forward and backward helpers of the fused
nodes, so both sides run the same arithmetic.

``canonical_ranks`` exposes the per-atom ranks that ``canonicalize``
computes on the way to a canonical SMILES, for the golden rank tests.
"""

from __future__ import annotations

import numpy as np

from molseq.autodiff import (
    Tensor,
    _as_tensor,
    _check_broadcast,
    _l2_normalize,
    _l2_normalize_bwd,
    _log_softmax_rows,
    _log_softmax_rows_bwd,
    _node,
    _require_2d,
    _sq_dists,
    _sq_dists_bwd,
    _unbroadcast,
)
from molseq.errors import ShapeMismatch
from molseq.smiles import MolGraph, _coded_adjacency, _fragments, _morgan_ranks


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("sub", a, b)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node("sub", a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("mul", a, b)

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node("mul", a.data * b.data, (a, b), bwd)


def exp(x) -> Tensor:
    x = _as_tensor(x)
    e = np.exp(x.data)
    return _node("exp", e, (x,), lambda g: (g * e,), check_finite=True)


def row_log_softmax(x) -> Tensor:
    x = _as_tensor(x)
    _require_2d("row_log_softmax", x)
    out, soft = _log_softmax_rows(x.data)
    return _node("row_log_softmax", out, (x,), lambda g: (_log_softmax_rows_bwd(g, soft),))


def sum_axis(x, axis: int) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2 or axis not in (0, 1):
        raise ShapeMismatch("sum", (x.shape,))

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _node("sum", x.data.sum(axis=axis), (x,), bwd)


def mean(x, axis: int | None = None) -> Tensor:
    x = _as_tensor(x)
    if axis is None:
        n = x.data.size
        return _node("mean", x.data.mean(), (x,), lambda g: (np.broadcast_to(g / n, x.shape).copy(),))
    if x.data.ndim != 2 or axis not in (0, 1):
        raise ShapeMismatch("mean", (x.shape,))
    n = x.shape[axis]

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g / n, axis), x.shape).copy(),)

    return _node("mean", x.data.mean(axis=axis), (x,), bwd)


def l2_normalize_rows(x) -> Tensor:
    x = _as_tensor(x)
    _require_2d("l2_normalize_rows", x)
    y, safe, guarded = _l2_normalize(x.data)
    out = _node("l2_normalize_rows", y, (x,), lambda g: (_l2_normalize_bwd(g, y, safe, guarded),),
                check_finite=True)
    out.guarded_rows = tuple(int(i) for i in np.flatnonzero(guarded))
    return out


def pairwise_sq_dists(x, y) -> Tensor:
    """Squared Euclidean distances between the rows of x [m,d] and y [n,d]."""
    x, y = _as_tensor(x), _as_tensor(y)
    if x.data.ndim != 2 or y.data.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeMismatch("pairwise_sq_dists", (x.shape, y.shape))
    out, mask = _sq_dists(x.data, y.data)
    return _node("pairwise_sq_dists", out, (x, y), lambda g: _sq_dists_bwd(g, x.data, y.data, mask),
                 check_finite=True)


def scale(x, s: float) -> Tensor:
    x = _as_tensor(x)
    s = float(s)
    return _node("scale", x.data * s, (x,), lambda g: (g * s,))


def transpose(x) -> Tensor:
    x = _as_tensor(x)
    _require_2d("transpose", x)
    return _node("transpose", x.data.T.copy(), (x,), lambda g: (g.T.copy(),))


def canonical_ranks(graph: MolGraph) -> list[int]:
    """Per-atom refined ranks (dense within each fragment)."""
    adj = _coded_adjacency(graph)
    out = [0] * len(graph.atoms)
    for frag in _fragments(adj):
        for a, r in zip(frag, _morgan_ranks(graph, frag, adj)):
            out[a] = r
    return out
