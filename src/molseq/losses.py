"""Training losses: supervised contrastive alignment, batch-hard triplet,
center loss with its update rule, classification cross-entropy, and the
weighted total.

The alignment loss treats the self/class target matrices as soft
cross-entropy targets: each row (and column) is normalized to a
probability distribution, so multi-positive rows become uniform over the
positives and one-hot targets reduce the loss to the standard symmetric
two-direction contrastive cross-entropy.

Each loss, and the weighted total, is an autodiff node that scans its own
output, so a non-finite value raises ``NonFiniteValue`` once, where it is made.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DegenerateBatch, ShapeMismatch, check_labels

__all__ = [
    "DegenerateBatch",
    "SupervisionPair",
    "CenterState",
    "build_supervision",
    "similarity",
    "msc_loss",
    "hard_triplet_loss",
    "center_loss",
    "update_centers",
    "classification_ce",
    "total_loss",
]


@dataclass(frozen=True)
class SupervisionPair:
    """Self matrix (identity) and class matrix (same-label indicator)."""

    m_self: np.ndarray
    m_class: np.ndarray


def build_supervision(labels) -> SupervisionPair:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 1:
        raise ValueError("labels must be a non-empty 1-D sequence")
    m_class = (labels[:, None] == labels[None, :]).astype(np.float64)
    return SupervisionPair(m_self=np.eye(labels.size), m_class=m_class)


def similarity(s: ad.Tensor, v: ad.Tensor, temperature: float | ad.Tensor = 0.07) -> ad.Tensor:
    """Temperature-scaled inner products of row-normalized features.

    Rows of both matrices are L2-normalized before the product; a
    trainable inverse-temperature can be passed as a 0-d tensor holding
    log(1/tau).
    """
    return ad.cosine_logits(s, v, temperature)


def msc_loss(sim: ad.Tensor, sup: SupervisionPair | ad.SoftTargets, direction: str = "both") -> ad.Tensor:
    """Alignment loss: soft CE against the self target plus the class target, in ``direction``.

    ``sup`` may also be the pair already normalized, by
    ``ad.soft_targets((m_self, m_class), direction)``; it carries its direction.
    """
    targets = sup if isinstance(sup, ad.SoftTargets) else ad.soft_targets((sup.m_self, sup.m_class), direction)
    return ad.soft_target_ce(sim, targets)


def hard_triplet_loss(features: ad.Tensor, labels, margin: float = 0.3,
                      masks: tuple[np.ndarray, np.ndarray] | None = None) -> ad.Tensor:
    """Mean over anchors of max(0, d(A, hardest pos) - d(A, hardest neg) + margin).

    Distances are squared Euclidean; mining happens outside the graph, the
    hinge differentiates through the selected pairs only.  ``masks``, when
    given, are ``ad.triplet_masks(labels)``.
    """
    return ad.batch_hard_triplet(features, labels, margin, masks)


@dataclass
class CenterState:
    """Per-class feature centers plus their update rate."""

    centers: np.ndarray
    alpha: float = 0.5

    @property
    def num_classes(self) -> int:
        return self.centers.shape[0]


def center_loss(features: ad.Tensor, labels, state: CenterState) -> ad.Tensor:
    """Half the summed squared distance of each feature to its class center."""
    labels = np.asarray(labels, dtype=np.int64)
    check_labels(labels, state.num_classes)
    return ad.half_sq_error(features, state.centers[labels])


def update_centers(state: CenterState, features: np.ndarray, labels) -> CenterState:
    """Move each present class center toward its batch members.

    delta_c = sum_{i in c} (C_c - V_i) / (1 + count_c); C_c -= alpha * delta_c,
    with each class's members summed in batch order, from +0.0.  Classes
    absent from the batch are untouched.  Mutates and returns state.

    ``labels`` is a PK batch's ``[P, K]`` label array, row p labelling
    features ``p*K`` to ``p*K + K - 1``, so ``count_c`` is K; any other shape
    raises ``ShapeMismatch``.  Each row must hold one label, distinct between
    rows, as ``pk_sample_indices`` draws them; this is not checked.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 2 or labels.size != features.shape[0]:
        raise ShapeMismatch("update_centers", (features.shape, labels.shape))
    check_labels(labels, state.num_classes)
    p, k = labels.shape
    present = labels[:, 0]
    centers = state.centers[present]
    diff = centers[:, None, :] - features.reshape(p, k, features.shape[1])
    # "+ 0.0" starts each sum from +0.0, so K differences of -0.0 sum to +0.0, and
    # the loop over K adds in batch order, where a sum over the K axis adds pairwise.
    sums = diff[:, 0] + 0.0
    for j in range(1, k):
        sums += diff[:, j]
    state.centers[present] = centers - state.alpha * (sums / (1.0 + k))
    return state


def classification_ce(logits: ad.Tensor, labels) -> ad.Tensor:
    """Mean negative log-softmax of the true class."""
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    check_labels(labels, k)
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    # Each one-hot row sums to exactly 1.0, so it is its own row distribution.
    return ad.soft_target_ce(logits, ad.SoftTargets(rows=(onehot,), cols=None))


def total_loss(components: dict[str, ad.Tensor | None],
               weights: Mapping[str, float]) -> tuple[ad.Tensor, dict[str, float]]:
    """Weighted sum of the loss terms plus an unweighted per-term report.

    Components map names in {"msc", "triplet", "center", "cls"} to scalar
    tensors; None entries (e.g. a disabled branch) contribute nothing.
    ``weights`` maps the same names to coefficients (``TrainConfig.weights()``).
    """
    report: dict[str, float] = {}
    terms: list[ad.Tensor] = []
    coefficients: list[float] = []
    for name in ("msc", "triplet", "center", "cls"):
        comp = components.get(name)
        if comp is None:
            report[name] = 0.0
            continue
        report[name] = float(comp.data)
        terms.append(comp)
        coefficients.append(weights[name])
    total = ad.weighted_sum(terms, coefficients) if terms else ad.constant(0.0)
    report["total"] = float(total.data)
    return total, report
