"""Dataset plumbing: manifest ingestion, synthetic data generation, the
train/test split, query/gallery construction and PK batch sampling.

A dataset directory holds ``manifest.csv`` (one record per line:
``sample_id,drug_id,smiles,drug_label,moa_label,frames_path``) and a
``frames/`` subdirectory with one binary file per sample: two little-endian
uint32 (T, f) followed by T*f little-endian float64 in row-major order.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    "pk_sample",
    "pk_groups",
    "pk_sample_indices",
    "choose_pk",
    "read_kv",
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
    def __init__(self, drug_id: str, detail: str = "") -> None:
        self.drug_id = drug_id
        super().__init__(f"drug {drug_id!r} has inconsistent records" + (f": {detail}" if detail else ""))


class SmilesRecordError(ValueError):
    def __init__(self, line: int, cause: SmilesError) -> None:
        self.line = line
        self.cause = cause
        super().__init__(f"manifest line {line}: invalid SMILES: {cause}")


class MissingFeatureFile(FileNotFoundError):
    def __init__(self, path: str) -> None:
        self.path = path
        super().__init__(f"frame feature file not found: {path}")


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
    query: list[Sample]
    gallery: list[Sample]


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

    @property
    def num_samples(self) -> int:
        return self.num_drugs * self.samples_per_drug

    def validate(self) -> None:
        if min(self.num_moas, self.drugs_per_moa, self.samples_per_drug, self.T, self.f) < 1:
            raise ValueError("all synthetic counts must be >= 1")
        if self.separability < 0:
            raise ValueError("separability must be >= 0")
        if not 0.0 <= self.confounding <= 1.0:
            raise ValueError("confounding must lie in [0, 1]")

    @classmethod
    def from_file(cls, path) -> "SyntheticSpec":
        fields = {k: type(v) for k, v in cls().__dict__.items()}
        spec = cls()
        for key, value in read_kv(path).items():
            if key not in fields:
                raise ValueError(f"unknown synthetic spec key {key!r}")
            setattr(spec, key, fields[key](value))
        spec.validate()
        return spec


def read_kv(path) -> dict[str, str]:
    """Flat key=value file; blank lines and '#' comments are skipped."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


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
    raw = path.read_bytes()
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated frame file")
    t, f = (int(x) for x in np.frombuffer(raw[:8], dtype="<u4"))
    data = np.frombuffer(raw[8:], dtype="<f8")
    if data.size != t * f:
        raise ValueError(f"{path}: expected {t * f} values, found {data.size}")
    return data.reshape(t, f).copy()


def write_dataset(samples: list[Sample], out_dir) -> None:
    out = Path(out_dir)
    (out / "frames").mkdir(parents=True, exist_ok=True)
    lines = []
    for s in samples:
        rel = f"frames/{s.sample_id}.bin"
        _write_frames(out / rel, s.frames)
        lines.append(f"{s.sample_id},{s.drug_id},{s.smiles},{s.drug_label},{s.moa_label},{rel}")
    (out / "manifest.csv").write_text("\n".join(lines) + "\n")


def load_manifest(dataset_dir) -> list[Sample]:
    """Read and validate a dataset directory; SMILES are re-canonicalized."""
    root = Path(dataset_dir)
    manifest = root / "manifest.csv"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.csv under {root}")
    samples: list[Sample] = []
    drug_info: dict[str, tuple[str, int, int]] = {}
    label_moa: dict[int, int] = {}
    for lineno, raw in enumerate(manifest.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 6:
            raise SchemaError(lineno, f"expected 6 fields, found {len(parts)}")
        sample_id, drug_id, smiles, drug_label_s, moa_label_s, frames_path = [p.strip() for p in parts]
        try:
            drug_label, moa_label = int(drug_label_s), int(moa_label_s)
        except ValueError:
            raise SchemaError(lineno, "labels must be integers") from None
        if drug_label < 0 or moa_label < 0:
            raise SchemaError(lineno, "labels must be non-negative")
        try:
            smiles = canonical_smiles(smiles)
        except SmilesError as exc:
            raise SmilesRecordError(lineno, exc) from exc
        info = (smiles, drug_label, moa_label)
        if drug_id in drug_info and drug_info[drug_id] != info:
            raise InconsistentDrug(drug_id, f"line {lineno} disagrees with an earlier record")
        drug_info[drug_id] = info
        if drug_label in label_moa and label_moa[drug_label] != moa_label:
            raise InconsistentDrug(drug_id, f"drug label {drug_label} maps to multiple MoA labels")
        label_moa[drug_label] = moa_label
        feature_file = root / frames_path
        if not feature_file.exists():
            raise MissingFeatureFile(str(feature_file))
        try:
            frames = _read_frames(feature_file)
        except ValueError as exc:
            raise SchemaError(lineno, str(exc)) from None
        samples.append(Sample(sample_id, drug_id, smiles, drug_label, moa_label, frames))
    return samples


def split_train_test(samples: list[Sample], ratio: float = 0.8, seed: int = 0, drug_disjoint: bool = False):
    """Deterministic split; stratified per drug unless drug_disjoint."""
    if not samples:
        raise EmptyInput("cannot split an empty sample list")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    groups: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        groups.setdefault(s.drug_id, []).append(i)
    train_idx: list[int] = []
    test_idx: list[int] = []
    if drug_disjoint:
        drugs = list(groups)
        order = rng.permutation(len(drugs))
        n_train = max(1, min(len(drugs) - 1, round(ratio * len(drugs)))) if len(drugs) >= 2 else 1
        for pos, j in enumerate(order):
            (train_idx if pos < n_train else test_idx).extend(groups[drugs[j]])
    else:
        for drug in groups:
            idx = groups[drug]
            order = rng.permutation(len(idx))
            if len(idx) >= 2:
                n_train = max(1, min(len(idx) - 1, round(ratio * len(idx))))
            else:
                n_train = 1
            for pos, j in enumerate(order):
                (train_idx if pos < n_train else test_idx).append(idx[j])
    key = lambda i: samples[i].sample_id
    return [samples[i] for i in sorted(train_idx, key=key)], [samples[i] for i in sorted(test_idx, key=key)]


def _label_of(sample: Sample, label_kind: str) -> int:
    if label_kind == "drug":
        return sample.drug_label
    if label_kind == "moa":
        return sample.moa_label
    raise ValueError(f"label_kind must be 'drug' or 'moa', got {label_kind!r}")


def split_query_gallery(test: list[Sample], seed: int = 0, label_kind: str = "moa"):
    """One uniformly chosen query per class; everything else is gallery."""
    if not test:
        raise EmptyInput("empty test set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(test):
        groups.setdefault(_label_of(s, label_kind), []).append(i)
    query_idx = set()
    for label in sorted(groups):
        members = groups[label]
        if len(members) < 2:
            raise SingletonMoA(label)
        query_idx.add(members[int(rng.integers(len(members)))])
    query = [test[i] for i in sorted(query_idx)]
    gallery = [test[i] for i in range(len(test)) if i not in query_idx]
    return query, gallery


def prepare_split(samples: list[Sample], ratio: float = 0.8, seed: int = 0, label_kind: str = "moa",
                  drug_disjoint: bool = False) -> DatasetSplit:
    train, test = split_train_test(samples, ratio, seed, drug_disjoint)
    query, gallery = split_query_gallery(test, seed, label_kind)
    return DatasetSplit(train=train, test=test, query=query, gallery=gallery)


def pk_groups(labels) -> dict[int, np.ndarray]:
    """Positions of each label in ``labels``, ascending, keyed by label in sorted order."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D sequence")
    order = np.argsort(labels, kind="stable")
    keys, starts = np.unique(labels[order], return_index=True)
    return {int(key): members for key, members in zip(keys, np.split(order, starts[1:]))}


def pk_sample_indices(groups: dict[int, np.ndarray], p: int, k: int, seed: int, step: int) -> np.ndarray:
    """Positions of a P-class, K-per-class batch, deterministic in (seed, step).

    ``groups`` comes from ``pk_groups`` and is built once per label array.
    """
    if p < 1 or k < 1:
        raise ValueError("P and K must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17, step]))
    eligible = [label for label, members in groups.items() if members.size >= k]
    if len(eligible) < p:
        raise InsufficientClasses(f"need {p} classes with >= {k} samples, found {len(eligible)}")
    picks = []
    for c in rng.choice(len(eligible), size=p, replace=False):
        members = groups[eligible[c]]
        picks.append(members[rng.choice(members.size, size=k, replace=False)])
    return np.concatenate(picks)


def pk_sample(train: list[Sample], p: int, k: int, label_kind: str, seed: int, step: int) -> list[Sample]:
    """P distinct classes, K samples each, deterministic in (seed, step)."""
    groups = pk_groups([_label_of(s, label_kind) for s in train])
    return [train[i] for i in pk_sample_indices(groups, p, k, seed, step)]


def choose_pk(batch_size: int, num_classes: int) -> tuple[int, int]:
    """Largest P dividing batch_size with P <= min(num_classes, 16) and K >= 2."""
    cap = min(num_classes, 16, batch_size // 2)
    for p in range(cap, 0, -1):
        if batch_size % p == 0:
            return p, batch_size // p
    raise ValueError(f"cannot fit a PK batch of {batch_size} with {num_classes} classes")
