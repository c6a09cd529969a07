"""Retrieval evaluation (CMC curve, Rank-k, mAP) and classification accuracy.

Queries and gallery are disjoint by construction of the split protocol, so
no self-match filtering happens here.  Ranking is by descending cosine
similarity with ties broken by ascending gallery index; mAP and CMC follow
Zheng et al. 2015 (Market-1501).

``evaluate_retrieval`` ranks only the relevant items.  AP and CMC need the
sorted position of each gallery item that shares the query's label, not the
whole ranking.  Queries are scored in blocks by one GEMM against the
gallery; each block's negated scores are sorted once, and ``searchsorted``
gives every relevant item's position.  Ones at those positions make the
same 0/1 match row that a full stable argsort gives, and AP and CMC are
computed from that row exactly as before, so they are equal to the bit.

GEMM and the per-query GEMV of ``rank_gallery`` may sum the d products in
different orders, so their scores can differ in the last bits.  Both are
float64 dot products of unit-norm vectors, so each lies within
gamma_d = d*u/(1 - d*u) of the exact value in any summation order (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 3.1).
A score difference of more than four such errors has the same sign in
both.  So when no other gallery score lies within ``4*(d+2)*eps`` of any
relevant score, and every relevant score is finite, the positions are
those of today's ranking.  Otherwise that query falls back to ``_rank``
(GEMV plus stable argsort), so exact ties, near ties and NaN scores keep
the index-order tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, check_labels

__all__ = ["QueryLabelAbsent", "RetrievalResult", "rank_gallery", "evaluate_retrieval", "accuracy"]


class QueryLabelAbsent(ValueError):
    def __init__(self, label: int) -> None:
        self.label = label
        super().__init__(f"query label {label} does not appear in the gallery")


@dataclass
class RetrievalResult:
    average_precisions: np.ndarray  # [Q]
    cmc: np.ndarray  # [max_rank], non-decreasing in [0, 1]
    rank1: float
    rank5: float
    rank10: float
    map: float


def _normalize(embs: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(embs, axis=1, keepdims=True)
    return embs / np.maximum(norms, 1e-12)


def _rank(gallery_unit: np.ndarray, query_emb: np.ndarray) -> np.ndarray:
    """Rows of the L2-normalized gallery best-first for one query embedding."""
    scores = gallery_unit @ _normalize(query_emb[None, :])[0]
    # Stable argsort of the negated scores: ties fall back to index order.
    return np.argsort(-scores, kind="stable")


def _relevant_positions(neg_relevant: np.ndarray, neg_sorted: np.ndarray, band: float):
    """Positions of the relevant items in the stable ranking, or None.

    ``neg_sorted`` is the query's sorted negated score row.  None means a
    relevant score is not finite or has another score within ``band``, and
    only a stable argsort can place it.
    """
    if not np.isfinite(neg_relevant).all():
        return None
    lo = np.searchsorted(neg_sorted, neg_relevant - band, side="left")
    hi = np.searchsorted(neg_sorted, neg_relevant + band, side="right")
    if (hi - lo != 1).any():
        return None
    return lo


def rank_gallery(query_emb: np.ndarray, gallery_embs: np.ndarray) -> np.ndarray:
    """Gallery indices ranked best-first for one query embedding.

    This is the one-query reference: the tests compare ``evaluate_retrieval``
    with a loop over it, and the benchmark's tracer patches it by name.
    """
    query_emb = np.asarray(query_emb, dtype=np.float64)
    gallery_embs = np.asarray(gallery_embs, dtype=np.float64)
    if query_emb.ndim != 1 or gallery_embs.ndim != 2 or gallery_embs.shape[1] != query_emb.size:
        raise ShapeMismatch("rank_gallery", (query_emb.shape, gallery_embs.shape))
    if gallery_embs.shape[0] < 1:
        raise ShapeMismatch("rank_gallery", (gallery_embs.shape,))
    return _rank(_normalize(gallery_embs), query_emb)


def evaluate_retrieval(
    query_embs: np.ndarray,
    query_labels,
    gallery_embs: np.ndarray,
    gallery_labels,
    max_rank: int = 20,
) -> RetrievalResult:
    """Standard retrieval scoring over the full ranked gallery.

    AP is the mean, over the relevant gallery items, of precision at each
    item's rank; CMC[k] is the fraction of queries with a correct match in
    the top k.
    """
    query_embs = np.asarray(query_embs, dtype=np.float64)
    gallery_embs = np.asarray(gallery_embs, dtype=np.float64)
    q_labels = np.asarray(query_labels)
    g_labels = np.asarray(gallery_labels)
    if (query_embs.ndim != 2 or gallery_embs.ndim != 2 or gallery_embs.shape[1] != query_embs.shape[1]
            or query_embs.shape[0] != q_labels.size or gallery_embs.shape[0] != g_labels.size):
        raise ShapeMismatch("evaluate_retrieval", (query_embs.shape, gallery_embs.shape))
    num_g, dim = gallery_embs.shape
    max_rank = min(max_rank, num_g)
    gallery_label_set = set(g_labels.tolist())
    for label in q_labels:
        if label not in gallery_label_set:
            raise QueryLabelAbsent(label)
    gallery_unit = _normalize(gallery_embs)
    band = 4 * (dim + 2) * np.finfo(np.float64).eps
    block = max(1, 2**17 // max(num_g, 1))  # about 1 MB of scores per block

    aps = np.zeros(q_labels.size)
    first_hit = np.zeros(q_labels.size, dtype=np.int64)
    for start in range(0, q_labels.size, block):
        neg_scores = _normalize(query_embs[start:start + block]) @ gallery_unit.T
        np.negative(neg_scores, out=neg_scores)
        neg_sorted = np.sort(neg_scores, axis=1)
        for row in range(neg_scores.shape[0]):
            qi = start + row
            relevant = g_labels == q_labels[qi]
            positions = _relevant_positions(neg_scores[row][relevant], neg_sorted[row], band)
            if positions is None:
                order = _rank(gallery_unit, query_embs[qi])
                matches = relevant[order].astype(np.float64)
            else:
                matches = np.zeros(num_g)
                matches[positions] = 1.0
            cum = np.cumsum(matches)
            precisions = cum / np.arange(1, num_g + 1)
            aps[qi] = (precisions * matches).sum() / matches.sum()
            first_hit[qi] = int(np.argmax(matches)) + 1  # rank of the first correct item

    ranks = np.arange(1, max_rank + 1)
    cmc = (first_hit[None, :] <= ranks[:, None]).mean(axis=1)
    result = RetrievalResult(
        average_precisions=aps,
        cmc=cmc,
        rank1=float(cmc[0]),
        rank5=float(cmc[min(5, max_rank) - 1]),
        rank10=float(cmc[min(10, max_rank) - 1]),
        map=float(aps.mean()),
    )
    assert np.all(np.diff(result.cmc) >= 0) and result.rank1 <= result.rank5 <= result.rank10
    return result


def accuracy(logits: np.ndarray, labels) -> float:
    """Fraction of rows whose argmax (lowest index on ties) hits the label."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != labels.size:
        raise ShapeMismatch("accuracy", (logits.shape, labels.shape))
    check_labels(labels, logits.shape[1])
    return float((logits.argmax(axis=1) == labels).mean())
