"""Toy encoders for both modalities, the linear head, and checkpoint IO.

The molecule encoder is a masked-mean-pool MLP over token embeddings; the
sequence encoder is an MLP over concatenated mean/max temporal pooling of
per-frame features.  Both emit embeddings of a shared dimension d.  All
parameters live in a ParameterSet keyed by dotted names ("mol.emb",
"seq.w1", ...) so whole subtrees can be frozen by prefix.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import config_from_json
from .errors import ConfigError, ShapeMismatch
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
    """Checkpoint file is not an .npz archive, has a member that cannot be read, lacks its metadata or a metadata
    key, or carries metadata that is not a JSON object, an unknown format tag, a metadata entry of the wrong JSON
    type, a bad model config or a center_alpha outside (0, 1]."""


@dataclass
class Parameter:
    value: np.ndarray
    trainable: bool = True
    velocity: np.ndarray | None = None


class ParameterSet:
    """Named parameters with per-parameter trainable flags and SGD velocities (None before a first update)."""

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
    """Normalized non-PAD token counts of an [n, L] id matrix, one row per sample.

    Row i holds count(id == v in sample i) / (# non-PAD ids in sample i),
    so (counts @ embedding_table) is exactly the masked mean of the token
    embeddings.  Raises AllPadding/IdOutOfRange on bad rows.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
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
            target.value = np.array(value, dtype=np.float64)
            loaded.append(name)
        return loaded


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


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Single-file checkpoint: params + vocab + config echo + center state."""
    meta = {
        "format": CHECKPOINT_TAG,
        "model_config": dataclasses.asdict(ckpt.model_config),
        "extra_config": ckpt.extra_config,
        "vocabulary": ckpt.vocabulary.to_json(),
        "trainable": ckpt.trainable,
        "center_alpha": ckpt.center_alpha,
    }
    arrays = {f"param/{n}": value for n, value in ckpt.parameters.items()}
    if ckpt.centers is not None:
        arrays["centers"] = ckpt.centers
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


# What zipfile, zlib and numpy raise on corrupt archive bytes: a bad CRC, header or length, an unsupported
# compression or encryption flag, a short read, a seek to a bad offset, or an array header numpy refuses
# (object arrays included).
_MEMBER_ERRORS = (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, RuntimeError, ValueError, OSError,
                  MemoryError)


def _read_members(path) -> dict[str, np.ndarray]:
    """Every member of the archive at ``path`` as an array, by name without ``.npy``.  Each is read whole, so its
    CRC is checked even where a changed header promises fewer bytes; a failure is a ``CheckpointFormatError``."""
    try:
        with zipfile.ZipFile(path) as archive:
            # save_checkpoint writes no member comments, and a corrupt comment length hides the members after it.
            if any(info.comment for info in archive.infolist()):
                raise zipfile.BadZipFile("the central directory holds a member comment")
            return {name.removesuffix(".npy"): np.lib.format.read_array(io.BytesIO(archive.read(name)))
                    for name in archive.namelist()}
    except _MEMBER_ERRORS as exc:
        raise CheckpointFormatError(f"{path}: unreadable archive member: {exc}") from None


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:  # a missing file stays a FileNotFoundError
        if not zipfile.is_zipfile(fh):
            raise CheckpointFormatError(f"{path}: not an .npz archive")
    members = _read_members(path)
    if "__meta__" not in members:
        raise CheckpointFormatError(f"{path}: no __meta__ entry")
    try:
        meta = json.loads(str(members["__meta__"]))
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"{path}: __meta__ is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointFormatError(f"{path}: __meta__ must be a JSON object, found {type(meta).__name__}")
    if meta.get("format") != CHECKPOINT_TAG:
        raise CheckpointFormatError(f"{path}: expected format {CHECKPOINT_TAG!r}, found {meta.get('format')!r}")
    parameters = {k[len("param/") :]: v for k, v in members.items() if k.startswith("param/")}
    centers = members.get("centers")
    for key in ("model_config", "extra_config", "vocabulary", "trainable"):
        if key not in meta:
            raise CheckpointFormatError(f"{path}: __meta__ has no {key!r} entry")
        if not isinstance(meta[key], dict):
            raise CheckpointFormatError(f"{path}: {key} must be a JSON object, found {type(meta[key]).__name__}")
    for key, kind, what in (("vocabulary", int, "an int id"), ("trainable", bool, "true or false")):
        for name, value in meta[key].items():
            if type(value) is not kind:
                raise CheckpointFormatError(f"{path}: {key}: {name!r} must be {what}, found {value!r}")
    center_alpha = meta.get("center_alpha")
    if center_alpha is not None and (isinstance(center_alpha, bool) or not isinstance(center_alpha, (int, float))
                                     or not 0 < center_alpha <= 1):
        raise CheckpointFormatError(f"{path}: center_alpha must be null or a number in (0, 1], found {center_alpha!r}")
    try:
        model_config = config_from_json(ModelConfig, meta["model_config"])
    except ConfigError as exc:
        raise CheckpointFormatError(f"{path}: model_config: {exc}") from None
    try:
        vocabulary = Vocabulary.from_json(meta["vocabulary"])
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: vocabulary: {exc}") from None
    ids = set(vocabulary.token_to_id.values())
    if len(ids) < vocabulary.size or not ids <= set(range(model_config.vocab_size)):
        raise CheckpointFormatError(f"{path}: vocabulary: ids must be distinct and below vocab_size "
                                    f"{model_config.vocab_size}")
    for name, param in Model(model_config).params.items():
        if name not in parameters:
            raise CheckpointFormatError(f"{path}: param/{name}: missing, and model_config registers it")
        if parameters[name].shape != param.value.shape:
            raise CheckpointFormatError(f"{path}: param/{name}: shape {parameters[name].shape}, "
                                        f"model_config registers {param.value.shape}")
    return Checkpoint(
        model_config=model_config,
        extra_config=meta["extra_config"],
        vocabulary=vocabulary,
        parameters=parameters,
        trainable=meta["trainable"],
        centers=centers,
        center_alpha=center_alpha,
    )
