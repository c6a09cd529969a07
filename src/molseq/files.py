"""The file formats that more than one module reads or writes, and the one atomic write.

``replace_with`` moves a file onto its final name only once it is whole.
``read_lines`` reads every text file a user gives molseq (config and spec
files, ``manifest.csv``, the SMILES files of ``molseq canonicalize`` and
``molseq tokenize``) by the rules ``iter_lines`` reads standard input by:
UTF-8, with lines ended by "\n", "\r\n" or "\r".  ``read_config`` and
``config_from_json`` parse a key=value file or a checkpoint's config echo
by each field's type.  ``csv_text`` renders every CSV table molseq writes
or prints.  A checkpoint is one ``.npz`` archive, a ``Checkpoint`` record
that ``save_checkpoint`` writes and ``load_checkpoint`` reads and checks.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import zipfile
import zlib
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import Model, ModelConfig
from .smiles import Vocabulary

__all__ = ["replace_with", "iter_lines", "read_lines", "parse_config", "config_from_json", "read_config", "csv_text",
           "CHECKPOINT_TAG", "CheckpointFormatError", "Checkpoint", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_TAG = "molseq-checkpoint-v1"


class CheckpointFormatError(ValueError):
    """Checkpoint file is not an .npz archive, has a member that cannot be read, lacks its metadata or a metadata
    key, or carries metadata that is not a JSON object, an unknown format tag, a metadata entry of the wrong JSON
    type, a bad model config or a center_alpha outside (0, 1]."""


def replace_with(path: Path, write) -> None:
    """``write(tmp)`` to a temp path beside ``path`` with its suffix (``np.savez`` appends ``.npz`` to a name
    without one), then move it onto ``path`` in one rename; the temp file is removed if either raises."""
    tmp = path.with_name(f".{path.stem}.tmp{path.suffix}")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def iter_lines(stream, name, error=None) -> Iterator[str]:
    """Lines of the UTF-8 bytes of the binary ``stream``, ended by "\n", "\r\n" or "\r" only (splitlines() would
    also break at \x0c, \x85, \u2028 and others), without the empty one a final line end leaves, one at a time as
    they arrive (lines ended by "\r" alone arrive with the next "\n" or the end of the stream).  A byte that is not
    UTF-8 raises ``error(line, detail)``, by default a ``ConfigError`` naming ``name`` and the line.  "\n" and "\r"
    are never part of a longer UTF-8 sequence, so each line decodes on its own."""
    lineno = 0
    for piece in stream:  # up to and including each "\n"; a "\r\n" never straddles two pieces
        body = piece[:-1] if piece.endswith(b"\n") else piece
        parts = body.split(b"\r")
        if body.endswith(b"\r"):  # the "\r" of a "\r\n", or a final line end
            parts.pop()
        for raw in parts:
            lineno += 1
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                detail = f"byte 0x{raw[exc.start]:02x} is not UTF-8"
                raise (error(lineno, detail) if error else ConfigError(f"{detail} ({name} line {lineno})")) from None
            yield line


def read_lines(path, error=None) -> list[str]:
    """Every line ``iter_lines`` reads from the file at ``path``, so a byte that is not UTF-8 fails before any
    line is returned."""
    with open(path, "rb") as fh:
        return list(iter_lines(fh, path, error))


def _parse_bool(text) -> bool:
    low = text.lower() if isinstance(text, str) else None  # a JSON null is not a boolean
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Keyed by annotation string; only a JSON config echo hands a field a None, and only the optional field takes it.
_FIELD_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
                  "bool | None": lambda text: None if text is None else _parse_bool(text)}


def parse_config(cls, entries: dict, where: str = ""):
    """Validated ``cls`` with each ``{key: (text, at)}`` entry parsed by its field's annotated type; ``at`` ends
    the message of a bad key or value, ``where`` that of a missing key or a failed ``validate()``, and fields
    not named keep their defaults."""
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    for key, (text, at) in entries.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}{at}")
        try:
            values[key] = _FIELD_PARSERS[types[key]](text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}{at}") from None
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing config key {f.name!r}{where}")
    config = cls(**values)
    try:
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{exc}{where}") from None
    return config


def config_from_json(cls, data: dict):
    """``cls`` from its ``dataclasses.asdict`` echo, each value parsed as in a config file, then validated."""
    return parse_config(cls, {key: (None if value is None else str(value), "") for key, value in data.items()})


def read_config(path, cls):
    """``cls`` from a flat key=value file; '#' comments are skipped and a repeated key's last value wins."""
    entries: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f" ({path} line {lineno})"
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}{where}")
        key, value = line.split("=", 1)
        entries[key.strip()] = (value.strip(), where)
    return parse_config(cls, entries, f" ({path})")


def csv_text(columns, rows) -> str:
    """Header, then a line per row mapping: ints and strings via ``str``, other numbers via ``repr(float(x))``."""
    lines = [",".join(columns)]
    for row in rows:
        cells = (row[c] for c in columns)
        lines.append(",".join(str(x) if isinstance(x, (int, str)) else repr(float(x)) for x in cells))
    return "\n".join(lines) + "\n"


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
    meta = {"format": CHECKPOINT_TAG, "model_config": dataclasses.asdict(ckpt.model_config),
            "extra_config": ckpt.extra_config, "vocabulary": ckpt.vocabulary.to_json(), "trainable": ckpt.trainable,
            "center_alpha": ckpt.center_alpha}
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
    return Checkpoint(model_config=model_config, extra_config=meta["extra_config"], vocabulary=vocabulary,
                      parameters=parameters, trainable=meta["trainable"], centers=centers, center_alpha=center_alpha)
