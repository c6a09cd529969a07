"""Retrieval evaluation (CMC curve, Rank-k, mAP) and classification accuracy.

Queries and gallery are disjoint by construction of the split protocol, so
no self-match filtering happens here.  Ranking is by descending cosine
similarity with ties broken by ascending gallery index; mAP and CMC follow
Zheng et al. 2015 (Market-1501).

``evaluate_retrieval`` ranks only the relevant items.  AP and CMC need the
sorted position of each gallery item that shares the query's label, not the
whole ranking.  The gallery indices are grouped by label once, by a stable
argsort.  Queries are scored in blocks, one GEMM each against the gallery,
all into one buffer allocated once per call.  A GEMM with few rows spends
most of its time packing the gallery panel again for each block, so a block
holds as many whole 8-row tiles as fit in ``SCORE_BLOCK_BYTES`` (2.5 MiB)
of float64 scores, and at least one tile: 32 rows at G = 10k, 320 at
G = 1k, 8 past G = 20,480.  The budget bounds the memory the scores take.
For each query, only the candidates are sorted: the negated scores x with
x <= t = max(relevant) + band (``band`` is the near-tie width below).
``searchsorted`` in the sorted candidates gives every relevant item's
position.  A relevant negated score r is placed at lo = #{x < r - band}
when hi = #{x <= r + band} is lo + 1, so only scores up to r + band are
ever counted.  Rounding is monotone, so the computed r - band and r + band
never exceed the computed t, which is the same sum ``_relevant_positions``
forms for the worst relevant item.  Every dropped score is above t, so it
counted toward neither lo nor hi, and lo and hi (hence the positions, AP
and CMC) keep their bits.  A NaN score is never a candidate, and it sorts
after every number, so it was never counted either.  A NaN relevant score is
searched past every candidate, so its span hi - lo is 0 and the query goes
to the fallback below.  No score is infinite: the entries of a unit row are
at most 1 in magnitude, or NaN.

With the R positions sorted, p_1 < ... < p_R, row r of the block is
refilled with j / (p_j + 1) at p_j and zeros elsewhere, and one row sum
per block gives AP = sum / R; the first hit is p_1 + 1.  This is equal to
the bit to AP from the 0/1 match row of a full stable argsort, for two
reasons.  At a hit, ``cumsum(matches) / arange`` is exactly j / (p_j + 1),
and times the match it is +0.0 everywhere else.  And a row sum over a
C-contiguous ``[rows, G]`` array is the same pairwise summation as the 1-D
``.sum()`` of that row; a leading slice of the C-contiguous buffer, which
the last, partial block uses, is still C-contiguous.

GEMM and the per-query GEMV of ``rank_gallery`` may sum the d products in
different orders, so their scores can differ in the last bits.  Both are
float64 dot products of unit-norm vectors, so each lies within
gamma_d = d*u/(1 - d*u) of the exact value in any summation order (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 3.1).
A score difference of more than four such errors has the same sign in
both.  So when no other gallery score lies within ``4*(d+2)*eps`` of any
relevant score, and no relevant score is NaN, the positions are those of
today's ranking, whatever the block shape.  Otherwise that query's
positions come from ``_rank`` (GEMV plus stable argsort), so exact ties,
near ties and NaN scores keep the index-order tie-break; AP and the first
hit are then computed from them like any other row's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, check_labels

__all__ = ["QueryLabelAbsent", "RetrievalResult", "rank_gallery", "evaluate_retrieval", "accuracy"]

# Bytes of float64 scores one scoring block may hold (see the module docstring).
SCORE_BLOCK_BYTES = 2_621_440


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

    ``neg_sorted`` holds the query's negated scores in sorted order, without
    NaN; it may leave out any score above ``neg_relevant.max() + band``.
    None means a relevant score is NaN (it is searched past every score, so
    its span is 0) or has another score within ``band``, and only a stable
    argsort can place it.
    """
    lo = neg_sorted.searchsorted(neg_relevant - band, side="left")
    hi = neg_sorted.searchsorted(neg_relevant + band, side="right")
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
            or query_embs.shape[0] != q_labels.size or gallery_embs.shape[0] != g_labels.size
            or q_labels.size == 0):
        raise ShapeMismatch("evaluate_retrieval", (query_embs.shape, gallery_embs.shape))
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    num_g, dim = gallery_embs.shape
    max_rank = min(max_rank, num_g)
    # Gallery indices grouped by label; within a group they stay in index order.
    by_label = np.argsort(g_labels, kind="stable")
    sorted_labels = g_labels[by_label]
    group_lo = np.searchsorted(sorted_labels, q_labels, side="left")
    group_hi = np.searchsorted(sorted_labels, q_labels, side="right")
    absent = np.flatnonzero(group_hi == group_lo)
    if absent.size:
        raise QueryLabelAbsent(q_labels[absent[0]])
    gallery_unit = _normalize(gallery_embs)
    band = 4 * (dim + 2) * np.finfo(np.float64).eps
    group_sizes = group_hi - group_lo
    # Whole 8-row GEMM tiles per block, at least one (see the module docstring).
    block = 8 * max(1, SCORE_BLOCK_BYTES // (64 * num_g))
    buffer = np.empty((min(block, q_labels.size), num_g))
    # j = 1 .. R_max as floats; j / (p_j + 1) has the bits of the int64 j's.
    hit_counts = np.arange(1.0, group_sizes.max() + 1)

    aps = np.zeros(q_labels.size)
    first_hit = np.zeros(q_labels.size, dtype=np.int64)
    for start in range(0, q_labels.size, block):
        stop = min(start + block, q_labels.size)
        neg_scores = buffer[:stop - start]
        np.matmul(_normalize(query_embs[start:stop]), gallery_unit.T, out=neg_scores)
        np.negative(neg_scores, out=neg_scores)
        for row, row_scores in enumerate(neg_scores):
            qi = start + row
            members = by_label[group_lo[qi]:group_hi[qi]]
            neg_relevant = row_scores[members]
            # Only scores up to the worst relevant one plus band can move a
            # relevant position (see the module docstring).
            candidates = row_scores[row_scores <= neg_relevant.max() + band]
            candidates.sort()
            positions = _relevant_positions(neg_relevant, candidates, band)
            if positions is None:
                relevant = np.zeros(num_g, dtype=bool)
                relevant[members] = True
                positions = np.flatnonzero(relevant[_rank(gallery_unit, query_embs[qi])])
            # The row's scores are spent (the fallback re-scores from the
            # query), so the row becomes its precision buffer; see the module
            # docstring for why AP keeps its bits.
            positions.sort()
            row_scores.fill(0.0)
            row_scores[positions] = hit_counts[:positions.size] / (positions + 1.0)
            first_hit[qi] = positions[0] + 1  # rank of the first correct item
        aps[start:stop] = neg_scores.sum(axis=1) / group_sizes[start:stop]

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
