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

The GEMM takes the negated unit queries, so it yields the negated scores
directly.  IEEE negation is exact and round-to-nearest is symmetric in
sign, so every product and every partial sum is the exact negation of the
one the plain queries give; only the sign of a zero score can differ, and
no comparison below sees that sign.  For each query, only the candidates
are sorted: the negated scores x with x <= t = max(relevant) + band
(``band`` is the near-tie width below), taken by ``np.compress`` on the
comparison's mask, which keeps the same elements in the same order as a
boolean index, at less cost.  ``searchsorted`` in the sorted
candidates gives every relevant item's position.  A relevant negated
score r is placed at lo = #{x < r - band} when hi = #{x <= r + band} is
lo + 1, so only scores up to r + band are ever counted.  Rounding is
monotone, so the computed r - band and r + band never exceed the computed
t, which is the same sum formed for the worst relevant item.  Every dropped
score is above t, so it counted toward neither lo nor hi, and lo and hi
(hence the positions, AP and CMC) keep their bits.  A NaN score is never a
candidate, and it sorts after every number, so it was never counted either.
A NaN relevant score makes t NaN, so the row has no candidates, its span
hi - lo is 0 and the query goes to the fallback below.  No score is
infinite: the entries of a unit row are at most 1 in magnitude, or NaN.

Everything but the per-row compare, compress, sort and two ``searchsorted``
calls runs once per block, over the block's relevant items laid out as one
flat run, row after row: one gather of the relevant scores, the thresholds
by ``np.maximum.reduceat`` (which, like ``max``, is exact and propagates
NaN), the +-band keys, and the fallback test by ``np.logical_or.reduceat``
over hi - lo != 1.  The per-block arrays hold one entry per relevant item
of the block's rows, B*R for B rows of R relevant items each.

With a row's R positions sorted, p_1 < ... < p_R, row r of the block is
refilled with j / (p_j + 1) at p_j and zeros elsewhere, and one row sum
per block gives AP = sum / R; the first hit is p_1 + 1.  One int64 sort of
the keys r*G + p sorts every row's positions at once, because row r's keys
all lie in [r*G, (r + 1)*G); one zero fill and one scatter at those keys
then build the block's rows.  This is equal to the bit to AP from the 0/1
match row of a full stable argsort, for two reasons.  At a hit,
``cumsum(matches) / arange`` is exactly j / (p_j + 1), and times the match
it is +0.0 everywhere else.  And a row sum over a C-contiguous ``[rows, G]``
array is the same pairwise summation as the 1-D ``.sum()`` of that row; a
leading slice of the C-contiguous buffer, which the last, partial block
uses, is still C-contiguous.

GEMM and the per-query GEMV of ``rank_gallery`` may sum the d products in
different orders, so their scores can differ in the last bits.  Both are
float64 dot products of unit-norm vectors, so each lies within
gamma_d = d*u/(1 - d*u) of the exact value in any summation order (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 3.1).
A score difference of more than four such errors has the same sign in
both.  So when no other gallery score lies within ``4*(d+2)*eps`` of any
relevant score, and no relevant score is NaN, the positions are those of
``rank_gallery``'s ranking, by descending GEMV score with ties broken by
ascending index, whatever the block shape.  Otherwise that query's
positions come from ``_fallback_positions``, which ranks by
``rank_gallery``'s GEMV scores (``_neg_scores``), so exact ties, near ties
and NaN scores keep the index-order tie-break; AP and the first hit are
then computed from them like any other row's.

The fallback sorts only the GEMV candidates: the indices i, in ascending
order, whose negated score x_i is at or below the worst relevant one, w.
Their stable argsort is the first part of ``rank_gallery``'s stable
argsort of all of x.  Every other x_i is either above w or NaN, and both
sort after every candidate: numbers by value, NaN after every number.
Among the candidates, the full sort orders by value and breaks ties by
index, and so does the stable argsort of the candidates, because they are
taken in index order.  Every relevant item is a candidate, so its rank among the
candidates is its position in the ranking.  If a relevant score is NaN,
then w is NaN, the cut would be empty, and all G scores are sorted, as
``rank_gallery`` does.
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


def _neg_scores(gallery_unit: np.ndarray, query_emb: np.ndarray) -> np.ndarray:
    """Negated cosine scores of one query embedding, by GEMV against the L2-normalized gallery."""
    neg_scores = gallery_unit @ _normalize(query_emb[None, :])[0]
    return np.negative(neg_scores, out=neg_scores)


def _fallback_positions(gallery_unit: np.ndarray, query_emb: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Positions of the gallery rows ``members`` in ``rank_gallery``'s ranking of ``query_emb``.

    It stable-argsorts only the GEMV scores at or below the worst relevant
    one, taken in index order; a NaN relevant score sorts them all.  The
    module docstring shows that this keeps ``rank_gallery``'s order.
    """
    neg_scores = _neg_scores(gallery_unit, query_emb)
    worst = neg_scores[members].max()
    cut = np.arange(neg_scores.size) if np.isnan(worst) else np.flatnonzero(neg_scores <= worst)
    rank = np.empty(cut.size, dtype=np.int64)
    rank[np.argsort(neg_scores[cut], kind="stable")] = np.arange(cut.size)
    return rank[cut.searchsorted(members)]


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
    # Stable argsort of the negated scores: ties fall back to index order.
    return np.argsort(_neg_scores(_normalize(gallery_embs), query_emb), kind="stable")


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
    if q_labels.ndim != 1 or g_labels.ndim != 1:
        raise ShapeMismatch("evaluate_retrieval", (q_labels.shape, g_labels.shape))
    if (query_embs.ndim != 2 or gallery_embs.ndim != 2 or gallery_embs.shape[1] != query_embs.shape[1]
            or query_embs.shape[0] != q_labels.size or gallery_embs.shape[0] != g_labels.size
            or q_labels.size == 0):
        raise ShapeMismatch("evaluate_retrieval", (query_embs.shape, gallery_embs.shape))
    if not isinstance(max_rank, (int, np.integer)) or isinstance(max_rank, bool):
        raise TypeError(f"max_rank must be an int, got {max_rank!r}")
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    num_q = q_labels.size
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
    buffer = np.empty((min(block, num_q), num_g))

    aps = np.empty(num_q)
    first_hit = np.empty(num_q, dtype=np.int64)
    for start in range(0, num_q, block):
        stop = min(start + block, num_q)
        neg_scores = buffer[:stop - start]
        neg_queries = _normalize(query_embs[start:stop])
        np.negative(neg_queries, out=neg_queries)
        np.matmul(neg_queries, gallery_unit.T, out=neg_scores)
        # The block's relevant items as one flat run, row after row: entry k
        # is item within[k] + 1 of its row, gallery index members[k], and
        # flat index row_base[k] + members[k] in the block.
        sizes = group_sizes[start:stop]
        row_starts = np.cumsum(sizes) - sizes
        row_ends = row_starts + sizes
        within = np.arange(row_ends[-1]) - np.repeat(row_starts, sizes)  # j - 1
        row_base = np.repeat(np.arange(0, neg_scores.size, num_g), sizes)
        members = by_label[np.repeat(group_lo[start:stop], sizes) + within]
        neg_relevant = np.take(neg_scores, row_base + members)
        # Only scores up to the worst relevant one plus band can move a
        # relevant position (see the module docstring).
        thresholds = np.maximum.reduceat(neg_relevant, row_starts) + band
        lo_keys = neg_relevant - band
        hi_keys = neg_relevant + band
        lo = np.empty_like(members)
        hi = np.empty_like(members)
        for row, t, s, e in zip(neg_scores, thresholds.tolist(), row_starts.tolist(), row_ends.tolist()):
            candidates = np.compress(row <= t, row)
            candidates.sort()
            lo[s:e] = candidates.searchsorted(lo_keys[s:e], side="left")
            hi[s:e] = candidates.searchsorted(hi_keys[s:e], side="right")
        # A NaN relevant score (its span is 0) or a score within band of a
        # relevant one sends the row to the fallback.
        for r in np.flatnonzero(np.logical_or.reduceat(hi - lo != 1, row_starts)).tolist():
            s, e = row_starts[r], row_ends[r]
            lo[s:e] = _fallback_positions(gallery_unit, query_embs[start + r], members[s:e])
        # Rows hold disjoint key ranges, so one sort orders each row's
        # positions.  The scores are spent: the block becomes the precision
        # rows (see the module docstring for why AP keeps its bits).
        keys = lo + row_base
        keys.sort()
        positions = keys - row_base
        neg_scores.fill(0.0)
        np.put(neg_scores, keys, (within + 1.0) / (positions + 1.0))
        first_hit[start:stop] = positions[row_starts] + 1  # rank of the first correct item
        aps[start:stop] = neg_scores.sum(axis=1) / sizes

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
    if logits.ndim != 2 or labels.ndim != 1 or logits.shape[0] != labels.size:
        raise ShapeMismatch("accuracy", (logits.shape, labels.shape))
    check_labels(labels, logits.shape[1])
    return float((logits.argmax(axis=1) == labels).mean())
