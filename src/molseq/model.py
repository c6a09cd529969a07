"""Toy encoders for both modalities and the linear head.

The molecule encoder is a masked-mean-pool MLP over token embeddings; the
sequence encoder is an MLP over concatenated mean/max temporal pooling of
per-frame features.  Both emit embeddings of a shared dimension d.  All
parameters live in a ParameterSet keyed by dotted names ("mol.emb",
"seq.w1", ...) so whole subtrees can be frozen by prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NonFiniteValue, ShapeMismatch
from .smiles import PAD_ID

__all__ = [
    "AllPadding",
    "IdOutOfRange",
    "EmptySequence",
    "NoSuchParameter",
    "Parameter",
    "ParameterSet",
    "ModelConfig",
    "MoleculeEncoder",
    "SequenceEncoder",
    "ClassifierHead",
    "Model",
    "pool_frames",
    "token_count_matrix",
]


class AllPadding(ValueError):
    """A token sequence contains no non-PAD ids."""


class IdOutOfRange(IndexError):
    """A token id is outside the vocabulary range."""


class EmptySequence(ValueError):
    """A frame sequence with T == 0 was passed to the sequence encoder."""


class NoSuchParameter(KeyError):
    """A parameter prefix matched nothing."""


class Parameter:
    """One named parameter: ``value`` is a reshaped view of its ``ParameterSet``'s flat vector, at ``span``.

    Assigning ``value`` writes into the vector.
    """

    __slots__ = ("_view", "span", "trainable")

    def __init__(self, view: np.ndarray, span: slice, trainable: bool) -> None:
        self._view = view
        self.span = span
        self.trainable = trainable

    @property
    def value(self) -> np.ndarray:
        return self._view

    @value.setter
    def value(self, new) -> None:
        new = np.asarray(new, dtype=np.float64)
        if new.shape != self._view.shape:
            raise ShapeMismatch("Parameter.value", (self._view.shape, new.shape))
        self._view[...] = new


class ParameterSet:
    """Named parameters with per-parameter trainable flags, stored in one contiguous float64 vector.

    ``flat`` holds every parameter, in the order added; each ``Parameter``
    is a reshaped view of its span.
    """

    def __init__(self) -> None:
        self._params: dict[str, Parameter] = {}
        self.flat = np.empty(0)

    def add(self, name: str, value: np.ndarray) -> None:
        """Append a trainable parameter to ``flat`` and rebuild every view on it."""
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        value = np.asarray(value, dtype=np.float64)
        end = self.flat.size
        self.flat = np.concatenate([self.flat, value.reshape(-1)])
        for p in self._params.values():
            p._view = self.flat[p.span].reshape(p._view.shape)
        self._params[name] = Parameter(self.flat[end:].reshape(value.shape), slice(end, self.flat.size), trainable=True)

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def set_trainable(self, name_prefix: str, trainable: bool) -> None:
        matched = [n for n in self._params if n.startswith(name_prefix)]
        if not matched:
            raise NoSuchParameter(f"no parameter matches prefix {name_prefix!r}")
        for n in matched:
            self._params[n].trainable = trainable

    def as_leaves(self, names=None) -> dict[str, ad.Tensor]:
        """Fresh graph leaves for one training step; frozen params get no grad.

        ``names`` (default: every parameter) are the parameters the step
        reads.  One scan of the whole vector raises ``NonFiniteValue("leaf")``
        before any leaf is built; only then is the first parameter whose span
        holds a NaN or Inf looked for, and named.  The leaves are views of the
        vector, so the step's ``sgd_step`` moves them: it runs once the step's
        graph is done.
        """
        if not np.isfinite(self.flat).all():
            bad = next(n for n, p in self._params.items() if not np.isfinite(p._view).all())
            raise NonFiniteValue("leaf", bad)
        params = self._params
        return {n: ad.Tensor(params[n]._view, requires_grad=params[n].trainable, check_finite=False)
                for n in (params if names is None else names)}


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def token_count_matrix(token_ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """Normalized non-PAD token counts of an [n, L] id matrix, one row per sample.

    Row i holds count(id == v in sample i) / (# non-PAD ids in sample i),
    so (counts @ embedding_table) is exactly the masked mean of the token
    embeddings.  Raises ShapeMismatch unless the ids are 2-D, and
    AllPadding/IdOutOfRange on bad rows.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ShapeMismatch("token_count_matrix", (ids.shape,))
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise IdOutOfRange(f"token id outside vocabulary of size {vocab_size}")
    counts = np.zeros((ids.shape[0], vocab_size))
    for i, row in enumerate(ids):
        live = row[row != PAD_ID]
        if live.size == 0:
            raise AllPadding(f"sample {i} is all padding")
        np.add.at(counts[i], live, 1.0)
        counts[i] /= live.size
    return counts


def pool_frames(frames: np.ndarray) -> np.ndarray:
    """Concatenated mean/max pooling over the time axis: [T,f] -> [2f]."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise EmptySequence(f"expected [T>=1, f] frames, got shape {frames.shape}")
    return np.concatenate([frames.mean(axis=0), frames.max(axis=0)])


def _mlp(x: ad.Tensor, leaves, prefix: str, activation) -> ad.Tensor:
    h = activation(ad.linear(x, leaves[f"{prefix}.w1"], leaves[f"{prefix}.b1"]))
    return ad.linear(h, leaves[f"{prefix}.w2"], leaves[f"{prefix}.b2"])


class MoleculeEncoder:
    """Token embedding table + masked mean pooling + two-layer tanh MLP."""

    def __init__(self, params: ParameterSet, rng: np.random.Generator, vocab_size: int, token_dim: int,
                 hidden_dim: int, out_dim: int) -> None:
        params.add("mol.emb", _uniform(rng, (vocab_size, token_dim), token_dim))
        params.add("mol.w1", _uniform(rng, (token_dim, hidden_dim), token_dim))
        params.add("mol.b1", _uniform(rng, (hidden_dim,), token_dim))
        params.add("mol.w2", _uniform(rng, (hidden_dim, out_dim), hidden_dim))
        params.add("mol.b2", _uniform(rng, (out_dim,), hidden_dim))

    def forward_counts(self, counts: np.ndarray, leaves: dict[str, ad.Tensor]) -> ad.Tensor:
        pooled = ad.matmul(ad.constant(counts), leaves["mol.emb"])
        return _mlp(pooled, leaves, "mol", ad.tanh)


class SequenceEncoder:
    """Two-layer relu MLP over pooled frame features, one ``pool_frames`` row [2f] per sample: [n, 2f] -> [n, d]."""

    def __init__(self, params: ParameterSet, rng: np.random.Generator, frame_dim: int, hidden_dim: int,
                 out_dim: int) -> None:
        fan = 2 * frame_dim
        params.add("seq.w1", _uniform(rng, (fan, hidden_dim), fan))
        params.add("seq.b1", _uniform(rng, (hidden_dim,), fan))
        params.add("seq.w2", _uniform(rng, (hidden_dim, out_dim), hidden_dim))
        params.add("seq.b2", _uniform(rng, (out_dim,), hidden_dim))

    def forward(self, pooled: np.ndarray, leaves: dict[str, ad.Tensor]) -> ad.Tensor:
        return _mlp(ad.constant(pooled), leaves, "seq", ad.relu)


class ClassifierHead:
    """Single affine map from the shared embedding to class logits."""

    def __init__(self, params: ParameterSet, rng: np.random.Generator, in_dim: int, num_classes: int) -> None:
        params.add("head.w", _uniform(rng, (in_dim, num_classes), in_dim))
        params.add("head.b", _uniform(rng, (num_classes,), in_dim))

    def forward(self, embedding: ad.Tensor, leaves: dict[str, ad.Tensor]) -> ad.Tensor:
        return ad.linear(embedding, leaves["head.w"], leaves["head.b"])


@dataclass
class ModelConfig:
    vocab_size: int
    frame_dim: int
    num_classes: int
    embed_dim: int = 64
    token_dim: int = 32
    mol_hidden: int = 64
    seq_hidden: int = 64
    seed: int = 0
    include_molecule: bool = True

    def validate(self) -> None:
        for name in ("vocab_size", "frame_dim", "num_classes", "embed_dim", "token_dim", "mol_hidden", "seq_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class Model:
    """Both encoders plus the classifier head over one ParameterSet.

    Parameter initialization is uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    drawn in a fixed registration order from a generator seeded by
    config.seed, so construction is fully deterministic.
    """

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.params = ParameterSet()
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 101]))
        self.molecule = (MoleculeEncoder(self.params, rng, config.vocab_size, config.token_dim, config.mol_hidden,
                                         config.embed_dim) if config.include_molecule else None)
        self.sequence = SequenceEncoder(self.params, rng, config.frame_dim, config.seq_hidden, config.embed_dim)
        self.head = ClassifierHead(self.params, rng, config.embed_dim, config.num_classes)

    def sequence_embeddings(self, pooled: np.ndarray) -> np.ndarray:
        """Inference path: sequence embeddings only, no graph kept."""
        return self.sequence.forward(pooled, self.params.as_leaves()).data

    def load_parameters(self, saved: dict[str, np.ndarray], prefixes: tuple[str, ...] | None = None) -> list[str]:
        """Copy saved values into matching parameters; returns loaded names."""
        loaded = []
        for name, value in saved.items():
            if prefixes is not None and not any(name.startswith(p) for p in prefixes):
                continue
            if name not in self.params:
                continue
            target = self.params[name]
            if target.value.shape != value.shape:
                raise ShapeMismatch(f"load_parameters[{name}]", (target.value.shape, value.shape))
            target.value = value
            loaded.append(name)
        return loaded
