"""Dataset plumbing: the dataset-directory format, synthetic data
generation, the train/test split, the test set's query positions and PK
batch sampling.

A dataset directory holds ``manifest.csv`` (one record per line:
``sample_id,drug_id,smiles,drug_label,moa_label,frames_path``) and a
``frames/`` subdirectory with one binary file per sample: two little-endian
uint32 (T, f) followed by T*f little-endian float64 in row-major order.
``write_dataset`` writes the manifest last, so a directory is complete
exactly when its manifest exists; ``load_manifest`` reads it with
``molseq.files.read_lines``.
``pk_sample_indices`` draws the PK batch of one step from the class table
``pk_classes`` builds once per stage; a stage draws the batches of all its
steps before the first one (``molseq.train._pk_schedule``).
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .files import read_lines, replace_with
from .smiles import SmilesError, canonical_smiles

__all__ = [
    "Sample",
    "DatasetSplit",
    "SyntheticSpec",
    "SchemaError",
    "InconsistentDrug",
    "SmilesRecordError",
    "MissingFeatureFile",
    "PoolExhausted",
    "EmptyInput",
    "SingletonMoA",
    "InsufficientClasses",
    "load_smiles_pool",
    "generate_synthetic",
    "write_dataset",
    "load_manifest",
    "split_train_test",
    "split_query_gallery",
    "prepare_split",
    "labels_of",
    "pk_groups",
    "pk_classes",
    "pk_sample_indices",
    "choose_pk",
]

# Scale of the per-drug direction offsets inside one MoA, before the
# confounding shrink.  Chosen so that confounding=0 keeps drugs cleanly
# separable while moderate confounding makes video-only drug
# identification genuinely lossy.
DRUG_OFFSET_SCALE = 0.35


class SchemaError(ValueError):
    def __init__(self, line: int, detail: str) -> None:
        self.line = line
        super().__init__(f"manifest line {line}: {detail}")


class InconsistentDrug(ValueError):
    def __init__(self, drug_id: str, detail: str, line: int) -> None:
        self.drug_id = drug_id
        self.line = line
        super().__init__(f"manifest line {line}: drug {drug_id!r} has inconsistent records: {detail}")


class SmilesRecordError(ValueError):
    def __init__(self, line: int, cause: SmilesError) -> None:
        self.line = line
        self.cause = cause
        super().__init__(f"manifest line {line}: invalid SMILES: {cause}")


class MissingFeatureFile(FileNotFoundError):
    def __init__(self, path: str, line: int) -> None:
        self.path = path
        self.line = line
        super().__init__(f"manifest line {line}: frame feature file not found: {path}")


class PoolExhausted(ValueError):
    """More drugs requested than distinct SMILES available."""


class EmptyInput(ValueError):
    pass


class SingletonMoA(ValueError):
    def __init__(self, label: int) -> None:
        self.label = label
        super().__init__(f"class {label} has fewer than 2 test samples; cannot split query/gallery")


class InsufficientClasses(ValueError):
    pass


@dataclass
class Sample:
    sample_id: str
    drug_id: str
    smiles: str
    drug_label: int
    moa_label: int
    frames: np.ndarray  # [T, f]


@dataclass
class DatasetSplit:
    train: list[Sample]
    test: list[Sample]
    query: np.ndarray  # ascending positions in ``test`` of the MoA queries; the rest is gallery


@dataclass
class SyntheticSpec:
    """Shape and difficulty knobs of a generated dataset."""

    num_moas: int = 4
    drugs_per_moa: int = 3
    samples_per_drug: int = 40
    T: int = 16
    f: int = 32
    seed: int = 0
    separability: float = 2.5
    confounding: float = 0.0

    @property
    def num_drugs(self) -> int:
        return self.num_moas * self.drugs_per_moa

    def validate(self) -> None:
        if min(self.num_moas, self.drugs_per_moa, self.samples_per_drug, self.T, self.f) < 1:
            raise ConfigError("all synthetic counts must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.separability) and self.separability >= 0):
            raise ConfigError("separability must be finite and >= 0")
        if not 0.0 <= self.confounding <= 1.0:
            raise ConfigError("confounding must lie in [0, 1]")


def load_smiles_pool() -> list[str]:
    text = importlib.resources.files("molseq").joinpath("smiles_pool.txt").read_text()
    return [line for line in text.splitlines() if line]


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def generate_synthetic(spec: SyntheticSpec) -> list[Sample]:
    """Synthetic samples with the MoA -> drug -> sample signal hierarchy.

    Every MoA gets a unit direction; every drug adds an offset whose length
    shrinks with `confounding`, so high confounding makes same-MoA drugs
    nearly indistinguishable from frames alone while their SMILES stay
    distinct.  Frames are direction * separability plus unit Gaussian noise.
    """
    spec.validate()
    pool = load_smiles_pool()
    if spec.num_drugs > len(pool):
        raise PoolExhausted(f"{spec.num_drugs} drugs requested, pool holds {len(pool)}")
    structure_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 3]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 5]))
    smiles_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 7]))

    moa_dirs = _unit_rows(structure_rng, spec.num_moas, spec.f)
    offsets = _unit_rows(structure_rng, spec.num_drugs, spec.f)
    offsets *= DRUG_OFFSET_SCALE * (1.0 - spec.confounding)
    smiles_ids = smiles_rng.choice(len(pool), size=spec.num_drugs, replace=False)

    samples: list[Sample] = []
    for g in range(spec.num_drugs):
        moa = g // spec.drugs_per_moa
        direction = spec.separability * (moa_dirs[moa] + offsets[g])
        drug_id = f"drug{g:03d}"
        for k in range(spec.samples_per_drug):
            frames = direction + noise_rng.standard_normal((spec.T, spec.f))
            samples.append(
                Sample(
                    sample_id=f"{drug_id}_s{k:03d}",
                    drug_id=drug_id,
                    smiles=pool[int(smiles_ids[g])],
                    drug_label=g,
                    moa_label=moa,
                    frames=frames,
                )
            )
    return samples


def _write_frames(path: Path, frames: np.ndarray) -> None:
    t, f = frames.shape
    with open(path, "wb") as fh:
        fh.write(np.array([t, f], dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(frames, dtype="<f8").tobytes())


def _read_frames(path: Path) -> np.ndarray:
    if not path.is_file():  # reading a directory fails, and reading a pipe or a device may never end
        if not path.exists():
            raise FileNotFoundError(path)
        raise ValueError(f"{path}: frames path does not name a regular file")
    raw = path.read_bytes()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated frame file")
    t, f = (int(x) for x in np.frombuffer(raw[:8], dtype="<u4"))
    if (len(raw) - 8) % 8:
        raise ValueError(f"{path}: payload of {len(raw) - 8} bytes is not a whole number of float64 values")
    data = np.frombuffer(raw[8:], dtype="<f8")
    if data.size != t * f:
        raise ValueError(f"{path}: expected {t * f} values, found {data.size}")
    return data.reshape(t, f).copy()


def write_dataset(samples: list[Sample], out_dir) -> None:
    """Write every frame file, then ``manifest.csv`` through ``files.replace_with``, so a directory is complete
    exactly when its manifest exists and a stop part-way never leaves a cut manifest."""
    out = Path(out_dir)
    (out / "frames").mkdir(parents=True, exist_ok=True)
    lines = []
    for s in samples:
        rel = f"frames/{s.sample_id}.bin"
        _write_frames(out / rel, s.frames)
        lines.append(f"{s.sample_id},{s.drug_id},{s.smiles},{s.drug_label},{s.moa_label},{rel}")
    text = "\n".join(lines) + "\n"
    replace_with(out / "manifest.csv", lambda tmp: tmp.write_text(text))


def load_manifest(dataset_dir) -> list[Sample]:
    """Read and validate a dataset directory; SMILES are re-canonicalized."""
    root = Path(dataset_dir)
    manifest = root / "manifest.csv"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.csv under {root}")
    samples: list[Sample] = []
    drug_info: dict[str, tuple[str, int, int]] = {}
    label_moa: dict[int, int] = {}
    canonical: dict[str, str] = {}  # raw SMILES -> canonical; a drug's rows share one
    line_of: dict[str, int] = {}  # sample_id -> the line that introduced it
    lines = read_lines(manifest, lambda lineno, detail: SchemaError(lineno, f"{manifest}: {detail}"))
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 6:
            raise SchemaError(lineno, f"expected 6 fields, found {len(parts)}")
        sample_id, drug_id, smiles, drug_label_s, moa_label_s, frames_path = [p.strip() for p in parts]
        if sample_id in line_of:
            raise SchemaError(lineno, f"sample_id {sample_id!r} repeats line {line_of[sample_id]}")
        line_of[sample_id] = lineno
        # Plain decimal digits only: int() would also take "1_0", "+1" and non-ASCII digits.
        if not all(t.isascii() and t.isdigit() for t in (drug_label_s, moa_label_s)):
            raise SchemaError(lineno, "labels must be non-negative integers written in decimal digits")
        drug_label, moa_label = int(drug_label_s), int(moa_label_s)
        if max(drug_label, moa_label) > np.iinfo(np.int64).max:
            raise SchemaError(lineno, "labels must fit in int64")
        if smiles not in canonical:
            try:
                canonical[smiles] = canonical_smiles(smiles)
            except SmilesError as exc:
                raise SmilesRecordError(lineno, exc) from exc
        smiles = canonical[smiles]
        info = (smiles, drug_label, moa_label)
        if drug_id in drug_info and drug_info[drug_id] != info:
            raise InconsistentDrug(drug_id, "disagrees with an earlier record", lineno)
        drug_info[drug_id] = info
        if drug_label in label_moa and label_moa[drug_label] != moa_label:
            raise InconsistentDrug(drug_id, f"drug label {drug_label} maps to multiple MoA labels", lineno)
        label_moa[drug_label] = moa_label
        feature_file = root / frames_path
        try:
            frames = _read_frames(feature_file)
        except FileNotFoundError:
            raise MissingFeatureFile(str(feature_file), lineno) from None
        except (OSError, ValueError) as exc:
            raise SchemaError(lineno, str(exc)) from None
        if frames.size == 0:
            raise SchemaError(lineno, f"{feature_file}: empty frame array (T, f) = {frames.shape}")
        if not np.isfinite(frames).all():
            raise SchemaError(lineno, f"{feature_file}: frame values must be finite")
        if samples and frames.shape[1] != samples[0].frames.shape[1]:
            raise SchemaError(lineno, f"{feature_file}: frame width {frames.shape[1]} differs from "
                                      f"{samples[0].frames.shape[1]} on earlier rows")
        samples.append(Sample(sample_id, drug_id, smiles, drug_label, moa_label, frames))
    return samples


def split_train_test(samples: list[Sample], ratio: float = 0.8, seed: int = 0, drug_disjoint: bool = False):
    """Deterministic split that deals each drug's samples at ``ratio``, or whole drugs if ``drug_disjoint``."""
    if not samples:
        raise EmptyInput("cannot split an empty sample list")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    groups: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        groups.setdefault(s.drug_id, []).append(i)
    drugs = list(groups.values())
    deals = [drugs] if drug_disjoint else [[[i] for i in idx] for idx in drugs]
    train_idx: list[int] = []
    test_idx: list[int] = []
    for items in deals:
        n_train = max(1, min(len(items) - 1, round(ratio * len(items))))
        for pos, j in enumerate(rng.permutation(len(items))):
            (train_idx if pos < n_train else test_idx).extend(items[j])
    key = lambda i: samples[i].sample_id
    return [samples[i] for i in sorted(train_idx, key=key)], [samples[i] for i in sorted(test_idx, key=key)]


def labels_of(samples: list[Sample], label_kind: str) -> np.ndarray:
    """The samples' drug or MoA labels as an int64 array."""
    if label_kind == "drug":
        return np.array([s.drug_label for s in samples], dtype=np.int64)
    if label_kind == "moa":
        return np.array([s.moa_label for s in samples], dtype=np.int64)
    raise ValueError(f"label_kind must be 'drug' or 'moa', got {label_kind!r}")


def split_query_gallery(test: list[Sample], seed: int = 0, label_kind: str = "moa") -> np.ndarray:
    """Ascending positions in ``test`` of one uniformly chosen query per class; every other position is gallery."""
    if not test:
        raise EmptyInput("empty test set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    query = []
    for label, members in pk_groups(labels_of(test, label_kind)).items():
        if members.size < 2:
            raise SingletonMoA(label)
        query.append(members[rng.integers(members.size)])
    return np.sort(query)


def prepare_split(samples: list[Sample], ratio: float = 0.8, seed: int = 0,
                  drug_disjoint: bool = False) -> DatasetSplit:
    """Train/test split plus the positions of the MoA queries in the test set."""
    train, test = split_train_test(samples, ratio, seed, drug_disjoint)
    return DatasetSplit(train=train, test=test, query=split_query_gallery(test, seed, "moa"))


def pk_groups(labels) -> dict[int, np.ndarray]:
    """Positions of each label in ``labels``, ascending, keyed by label in sorted order."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D sequence")
    order = np.argsort(labels, kind="stable")
    keys, starts = np.unique(labels[order], return_index=True)
    return {int(key): members for key, members in zip(keys, np.split(order, starts[1:]))}


def pk_classes(groups: dict[int, np.ndarray], p: int, k: int) -> list[np.ndarray]:
    """The ``pk_groups`` member arrays of the classes with at least k samples, in label order;
    ``InsufficientClasses`` unless there are P of them."""
    if p < 1 or k < 1:
        raise ValueError("P and K must be >= 1")
    classes = [members for members in groups.values() if members.size >= k]
    if len(classes) < p:
        raise InsufficientClasses(f"need {p} classes with >= {k} samples, found {len(classes)}")
    return classes


def pk_sample_indices(classes: list[np.ndarray], p: int, k: int, seed: int, step: int) -> np.ndarray:
    """Positions of a batch of K samples from each of P ``pk_classes``, deterministic in (seed, step)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17, step]))
    return np.concatenate([classes[c][rng.choice(classes[c].size, size=k, replace=False)]
                           for c in rng.choice(len(classes), size=p, replace=False)])


def choose_pk(batch_size: int, num_classes: int) -> tuple[int, int]:
    """Largest P dividing batch_size with P <= min(num_classes, 16) and K >= 2."""
    cap = min(num_classes, 16, batch_size // 2)
    for p in range(cap, 0, -1):
        if batch_size % p == 0:
            return p, batch_size // p
    raise ValueError(f"cannot fit a PK batch of {batch_size} with {num_classes} classes")
