"""Toy encoders for both modalities, the linear head, and checkpoint IO.

The molecule encoder is a masked-mean-pool MLP over token embeddings; the
sequence encoder is an MLP over concatenated mean/max temporal pooling of
per-frame features.  Both emit embeddings of a shared dimension d.  All
parameters live in a ParameterSet keyed by dotted names ("mol.emb",
"seq.w1", ...) so whole subtrees can be frozen by prefix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch
from .smiles import PAD_ID, Vocabulary

__all__ = [
    "AllPadding",
    "IdOutOfRange",
    "EmptySequence",
    "NoSuchParameter",
    "CheckpointFormatError",
    "Parameter",
    "ParameterSet",
    "ModelConfig",
    "MoleculeEncoder",
    "SequenceEncoder",
    "ClassifierHead",
    "Model",
    "pool_frames",
    "token_count_matrix",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_TAG",
]

CHECKPOINT_TAG = "molseq-checkpoint-v1"


class AllPadding(ValueError):
    """A token sequence contains no non-PAD ids."""


class IdOutOfRange(IndexError):
    """A token id is outside the vocabulary range."""


class EmptySequence(ValueError):
    """A frame sequence with T == 0 was passed to the sequence encoder."""


class NoSuchParameter(KeyError):
    """A parameter prefix matched nothing."""


class CheckpointFormatError(ValueError):
    """Checkpoint file carries an unknown format tag."""


@dataclass
class Parameter:
    value: np.ndarray
    trainable: bool = True


class ParameterSet:
    """Named parameters with per-parameter trainable flags."""

    def __init__(self) -> None:
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> None:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        self._params[name] = Parameter(np.asarray(value, dtype=np.float64), trainable)

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

    def as_leaves(self) -> dict[str, ad.Tensor]:
        """Fresh graph leaves for one training step; frozen params get no grad."""
        return {n: ad.Tensor(p.value, requires_grad=p.trainable) for n, p in self._params.items()}


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def token_count_matrix(token_ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """Normalized non-PAD token counts, one row per sample.

    Row i holds count(id == v in sample i) / (# non-PAD ids in sample i),
    so (counts @ embedding_table) is exactly the masked mean of the token
    embeddings.  Raises AllPadding/IdOutOfRange on bad rows.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
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

    prefix = "mol"

    def __init__(self, vocab_size: int, token_dim: int, hidden_dim: int, out_dim: int) -> None:
        self.vocab_size = vocab_size
        self.token_dim = token_dim
        self.hidden_dim = hidden_dim
        self.out_dim = out_dim

    def register(self, params: ParameterSet, rng: np.random.Generator) -> None:
        params.add("mol.emb", _uniform(rng, (self.vocab_size, self.token_dim), self.token_dim))
        params.add("mol.w1", _uniform(rng, (self.token_dim, self.hidden_dim), self.token_dim))
        params.add("mol.b1", _uniform(rng, (self.hidden_dim,), self.token_dim))
        params.add("mol.w2", _uniform(rng, (self.hidden_dim, self.out_dim), self.hidden_dim))
        params.add("mol.b2", _uniform(rng, (self.out_dim,), self.hidden_dim))

    def forward(self, token_ids: np.ndarray, leaves: dict[str, ad.Tensor]) -> ad.Tensor:
        counts = token_count_matrix(token_ids, self.vocab_size)
        pooled = ad.matmul(ad.constant(counts), leaves["mol.emb"])
        return _mlp(pooled, leaves, "mol", ad.tanh)

    def forward_counts(self, counts: np.ndarray, leaves: dict[str, ad.Tensor]) -> ad.Tensor:
        pooled = ad.matmul(ad.constant(counts), leaves["mol.emb"])
        return _mlp(pooled, leaves, "mol", ad.tanh)


class SequenceEncoder:
    """Mean/max temporal pooling + two-layer relu MLP over frame features."""

    prefix = "seq"

    def __init__(self, frame_dim: int, hidden_dim: int, out_dim: int) -> None:
        self.frame_dim = frame_dim
        self.hidden_dim = hidden_dim
        self.out_dim = out_dim

    def register(self, params: ParameterSet, rng: np.random.Generator) -> None:
        fan = 2 * self.frame_dim
        params.add("seq.w1", _uniform(rng, (fan, self.hidden_dim), fan))
        params.add("seq.b1", _uniform(rng, (self.hidden_dim,), fan))
        params.add("seq.w2", _uniform(rng, (self.hidden_dim, self.out_dim), self.hidden_dim))
        params.add("seq.b2", _uniform(rng, (self.out_dim,), self.hidden_dim))

    def forward(self, pooled: np.ndarray, leaves: dict[str, ad.Tensor]) -> ad.Tensor:
        pooled = np.asarray(pooled, dtype=np.float64)
        if pooled.ndim == 1:
            pooled = pooled[None, :]
        if pooled.shape[1] != 2 * self.frame_dim:
            raise ShapeMismatch("sequence_encoder", (pooled.shape, (2 * self.frame_dim,)))
        return _mlp(ad.constant(pooled), leaves, "seq", ad.relu)


class ClassifierHead:
    """Single affine map from the shared embedding to class logits."""

    prefix = "head"

    def __init__(self, in_dim: int, num_classes: int) -> None:
        self.in_dim = in_dim
        self.num_classes = num_classes

    def register(self, params: ParameterSet, rng: np.random.Generator) -> None:
        params.add("head.w", _uniform(rng, (self.in_dim, self.num_classes), self.in_dim))
        params.add("head.b", _uniform(rng, (self.num_classes,), self.in_dim))

    def forward(self, embedding: ad.Tensor, leaves: dict[str, ad.Tensor]) -> ad.Tensor:
        if embedding.shape[-1] != self.in_dim:
            raise ShapeMismatch("classify", (embedding.shape, (self.in_dim,)))
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

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, data: dict) -> "ModelConfig":
        return cls(**data)


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
        self.molecule: MoleculeEncoder | None = None
        if config.include_molecule:
            self.molecule = MoleculeEncoder(config.vocab_size, config.token_dim, config.mol_hidden, config.embed_dim)
            self.molecule.register(self.params, rng)
        self.sequence = SequenceEncoder(config.frame_dim, config.seq_hidden, config.embed_dim)
        self.sequence.register(self.params, rng)
        self.head = ClassifierHead(config.embed_dim, config.num_classes)
        self.head.register(self.params, rng)

    def encode_molecule(self, token_ids, leaves: dict[str, ad.Tensor] | None = None) -> ad.Tensor:
        if self.molecule is None:
            raise RuntimeError("model was built without a molecule encoder")
        leaves = leaves if leaves is not None else self.params.as_leaves()
        return self.molecule.forward(np.asarray(token_ids), leaves)

    def encode_sequence(self, frames, leaves: dict[str, ad.Tensor] | None = None) -> ad.Tensor:
        """Single sample: frames [T,f] -> embedding tensor [1,d]."""
        leaves = leaves if leaves is not None else self.params.as_leaves()
        return self.sequence.forward(pool_frames(frames), leaves)

    def encode_pooled(self, pooled, leaves: dict[str, ad.Tensor] | None = None) -> ad.Tensor:
        leaves = leaves if leaves is not None else self.params.as_leaves()
        return self.sequence.forward(pooled, leaves)

    def classify(self, embedding: ad.Tensor, leaves: dict[str, ad.Tensor] | None = None) -> ad.Tensor:
        leaves = leaves if leaves is not None else self.params.as_leaves()
        return self.head.forward(embedding, leaves)

    def sequence_embeddings(self, pooled: np.ndarray) -> np.ndarray:
        """Inference path: sequence embeddings only, no graph kept."""
        return self.encode_pooled(pooled).data

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
            target.value = np.array(value, dtype=np.float64)
            loaded.append(name)
        return loaded


def save_checkpoint(
    path,
    model: Model,
    vocab: Vocabulary,
    extra_config: dict | None = None,
    centers: np.ndarray | None = None,
    center_alpha: float | None = None,
) -> None:
    """Single-file checkpoint: params + vocab + config echo + center state."""
    meta = {
        "format": CHECKPOINT_TAG,
        "model_config": model.config.to_json(),
        "extra_config": extra_config or {},
        "vocabulary": vocab.to_json(),
        "trainable": {n: p.trainable for n, p in model.params.items()},
        "center_alpha": center_alpha,
    }
    arrays = {f"param/{n}": p.value for n, p in model.params.items()}
    if centers is not None:
        arrays["centers"] = centers
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


@dataclass
class Checkpoint:
    model_config: ModelConfig
    extra_config: dict
    vocabulary: Vocabulary
    parameters: dict[str, np.ndarray]
    trainable: dict[str, bool]
    centers: np.ndarray | None = None
    center_alpha: float | None = None

    def build_model(self) -> Model:
        model = Model(self.model_config)
        model.load_parameters(self.parameters)
        for name, flag in self.trainable.items():
            if name in model.params:
                model.params[name].trainable = flag
        return model


def load_checkpoint(path) -> Checkpoint:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        if meta.get("format") != CHECKPOINT_TAG:
            raise CheckpointFormatError(
                f"expected format {CHECKPOINT_TAG!r}, found {meta.get('format')!r}"
            )
        parameters = {k[len("param/") :]: np.array(data[k]) for k in data.files if k.startswith("param/")}
        centers = np.array(data["centers"]) if "centers" in data.files else None
    return Checkpoint(
        model_config=ModelConfig.from_json(meta["model_config"]),
        extra_config=meta.get("extra_config", {}),
        vocabulary=Vocabulary.from_json(meta["vocabulary"]),
        parameters=parameters,
        trainable={str(k): bool(v) for k, v in meta["trainable"].items()},
        centers=centers,
        center_alpha=meta.get("center_alpha"),
    )
