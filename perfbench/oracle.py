"""Reference computations the benchmark checks molseq's outputs against.

Nothing here calls ``molseq.metrics`` or the encoders: ranking, AP and CMC
follow their textbook definitions, and the sequence encoder is re-derived
from its parameters with plain numpy.
"""

from __future__ import annotations

import numpy as np


def sequence_embeddings(pooled: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """relu(x W1 + b1) W2 + b2, the sequence encoder's forward pass."""
    hidden = np.maximum(pooled @ params["seq.w1"] + params["seq.b1"], 0.0)
    return hidden @ params["seq.w2"] + params["seq.b2"]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)


def retrieval(q_embs, q_labels, g_embs, g_labels, max_rank: int = 20, chunk: int = 50):
    """Per-query AP and the CMC curve by direct definition.

    The gallery is ranked by descending cosine similarity, ties by
    ascending index.  AP is the mean, over the relevant items, of
    (relevant items at or above its rank) / rank; CMC[k-1] is the share of
    queries whose first relevant item sits at rank k or better.  Queries
    are scored ``chunk`` at a time so that the check stays small next to
    the program it checks.
    """
    q_labels = np.asarray(q_labels)
    g_labels = np.asarray(g_labels)
    gallery = _unit_rows(np.asarray(g_embs, dtype=np.float64))
    queries = _unit_rows(np.asarray(q_embs, dtype=np.float64))
    aps = np.empty(q_labels.size)
    first = np.empty(q_labels.size, dtype=np.int64)
    for lo in range(0, q_labels.size, chunk):
        scores = queries[lo:lo + chunk] @ gallery.T
        order = np.argsort(-scores, axis=1, kind="stable")
        for row, qi in enumerate(range(lo, min(lo + chunk, q_labels.size))):
            ranks = np.flatnonzero(g_labels[order[row]] == q_labels[qi]) + 1
            aps[qi] = np.mean(np.arange(1, ranks.size + 1) / ranks)
            first[qi] = ranks[0]
    max_rank = min(max_rank, g_labels.size)
    cmc = np.array([np.mean(first <= k) for k in range(1, max_rank + 1)])
    return aps, cmc
