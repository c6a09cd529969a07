"""Two-stage training protocol, SGD, strategy configurations and sweeps.

A stage trains on PK-sampled batches: both modalities are encoded, the
alignment loss is applied to the similarity matrix, and the sequence
embeddings additionally receive triplet, center and classification
supervision on the stage's labels (drug labels while pretraining, MoA
labels while fine-tuning).  Evaluation embeds each test sample once, with
the sequence encoder only, mirroring inference: the query rows are scored
against the other rows, and the head classifies every row.  A stage's
CSVs and checkpoint, and a sweep's table, are written in the formats of
``molseq.files``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import (DatasetSplit, InsufficientClasses, Sample, choose_pk, labels_of, pk_classes, pk_groups,
                   pk_sample_indices, split_query_gallery)
from .errors import ConfigError, DegenerateBatch, NonFiniteValue
from .files import Checkpoint, csv_text, replace_with, save_checkpoint
from .losses import (
    CenterState,
    build_supervision,
    center_loss,
    classification_ce,
    hard_triplet_loss,
    msc_loss,
    similarity,
    total_loss,
    update_centers,
)
from .metrics import RetrievalResult, accuracy, evaluate_retrieval
from .model import Model, ModelConfig, pool_frames, token_count_matrix
from .smiles import Vocabulary, build_vocabulary, encode_tokens

__all__ = [
    "ConfigError",
    "TrainConfig",
    "sgd_step",
    "StageResult",
    "run_stage",
    "eval_set",
    "evaluate",
    "PipelineResult",
    "run_pipeline",
    "run_strategy",
    "sweep_center_weight",
    "DEFAULT_SWEEP_WEIGHTS",
    "gradient_check_suite",
    "GRAD_TOLERANCE",
    "METRIC_COLUMNS",
]

STAGES = ("pretrain_drug", "finetune_moa")
_SEQ_ONLY = dict(stage="pretrain_drug", use_molecule_branch=False)
_DUAL = dict(stage="pretrain_drug", use_molecule_branch=True)
# A plan is a chain of (directory, config overrides): each stage warm-starts from the one before it.
PIPELINE = (("warmup", _SEQ_ONLY), ("pretrain", _DUAL),
            ("finetune", dict(stage="finetune_moa", freeze_molecule_encoder=None)))
STRATEGIES = {"S1": (("seq_only", _SEQ_ONLY),), "S2": (("dual_fresh", _DUAL),),
              "S3": (("seq_only", _SEQ_ONLY), ("dual_warm", _DUAL))}

# Center-weight schedule: 0.01, then 0.02..0.1 step 0.02, then 0.1..1.0 step 0.2.
DEFAULT_SWEEP_WEIGHTS = [0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.3, 0.5, 0.7, 0.9]

GRAD_TOLERANCE = 1e-5

METRIC_COLUMNS = ("accuracy", "rank1", "rank5", "rank10", "map")
SWEEP_COLUMNS = ("weight", "rank1", "map", "accuracy")


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_p: int = 16
    batch_k: int = 4
    learning_rate: float = 0.001
    momentum: float = 0.9
    w_msc: float = 1.0
    w_triplet: float = 1.0
    w_center: float = 0.1
    w_cls: float = 1.0
    margin: float = 0.3
    temperature: float = 0.07
    temperature_trainable: bool = False
    embed_dim: int = 64
    token_dim: int = 32
    mol_hidden: int = 64
    seq_hidden: int = 64
    max_tokens: int = 80
    seed: int = 0
    stage: str = "pretrain_drug"
    freeze_molecule_encoder: bool | None = None  # None: true iff fine-tuning
    use_molecule_branch: bool = True
    eval_every: int = 20
    msc_direction: str = "both"
    class_matrix_labels: str = "stage"  # which labels fill the class matrix
    center_alpha: float = 0.5
    split_ratio: float = 0.8
    drug_disjoint_split: bool = False

    @property
    def batch_size(self) -> int:
        return self.batch_p * self.batch_k

    @property
    def label_kind(self) -> str:
        return "drug" if self.stage == "pretrain_drug" else "moa"

    @property
    def resolved_freeze(self) -> bool:
        if self.freeze_molecule_encoder is None:
            return self.stage == "finetune_moa"
        return self.freeze_molecule_encoder

    def weights(self) -> dict[str, float]:
        """The loss-term coefficients by the component names ``total_loss`` takes."""
        return {"msc": self.w_msc, "triplet": self.w_triplet, "center": self.w_center, "cls": self.w_cls}

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        for name in ("embed_dim", "token_dim", "mol_hidden", "seq_hidden", "max_tokens"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_p < 1 or self.batch_k < 2:
            raise ConfigError("need batch_p >= 1 and batch_k >= 2 for in-batch positives")
        if self.learning_rate <= 0 or self.center_alpha <= 0 or self.center_alpha > 1:
            raise ConfigError("rates must be positive (center_alpha in (0, 1])")
        if math.copysign(1.0, self.momentum) < 0:  # sgd_step's -0.0 velocity start needs a clear sign bit
            raise ConfigError(f"momentum must be >= 0 with its sign bit clear, got {self.momentum!r}")
        if min(self.w_msc, self.w_triplet, self.w_center, self.w_cls, self.margin) < 0:
            raise ConfigError("loss weights and margin must be non-negative")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.stage not in STAGES:
            raise ConfigError(f"stage must be one of {STAGES}")
        if self.msc_direction not in ("both", "row", "col"):
            raise ConfigError("msc_direction must be 'both', 'row' or 'col'")
        if self.class_matrix_labels not in ("stage", "moa"):
            raise ConfigError("class_matrix_labels must be 'stage' or 'moa'")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must lie in (0, 1)")


def sgd_step(params, leaves: dict[str, ad.Tensor], lr: float, momentum: float, velocity: np.ndarray,
             scratch: np.ndarray) -> None:
    """Momentum SGD on every leaf: v <- momentum*v + g; p <- p - lr*v.

    ``leaves`` are one run of parameters, adjacent and in order in
    ``params.flat``, and every leaf holds a gradient g.  ``velocity`` and
    ``scratch`` are vectors in the layout of ``params.flat``.  The update
    runs in place on them, once over the run's span; the gradients, then
    lr*v, go through ``scratch``, so that a step allocates no vector-sized
    temporaries: freeing those at every step makes the allocator return and
    re-fault the top of the heap, which slowed the whole step.

    A velocity that starts at -0.0 needs no first-update rule.  For a finite
    momentum with its sign bit clear, momentum * -0.0 is -0.0, and -0.0 + g
    is g bit for bit (-0.0 + -0.0 is -0.0, -0.0 + +0.0 is +0.0, any other g
    comes back exact), so the first update sets v to exactly g.  A +0.0
    start would turn a -0.0 in g into +0.0.
    """
    names = list(leaves)
    span = slice(params[names[0]].span.start, params[names[-1]].span.stop)
    v, work = velocity[span], scratch[span]
    np.concatenate([leaf.grad.reshape(-1) for leaf in leaves.values()], out=work)
    v *= momentum
    v += work
    np.multiply(lr, v, out=work)
    params.flat[span] -= work


def _trains(config: TrainConfig, name: str) -> bool:
    """Whether a stage under ``config`` trains parameter ``name``: every one but ``mol.*`` when the molecule encoder
    is frozen."""
    return not (config.use_molecule_branch and config.resolved_freeze and name.startswith("mol."))


@dataclass
class StageResult:
    config: TrainConfig
    model: Model
    vocab: Vocabulary
    centers: CenterState
    history: list[dict]
    loss_log: list[dict]

    @property
    def final(self) -> dict:
        return self.history[-1]

    @property
    def checkpoint(self) -> Checkpoint:
        """The stage as the record that ``save_checkpoint`` writes and ``load_checkpoint`` returns."""
        params = self.model.params.items()
        return Checkpoint(model_config=self.model.config, extra_config=dataclasses.asdict(self.config),
                          vocabulary=self.vocab, parameters={n: p.value.copy() for n, p in params},
                          trainable={n: _trains(self.config, n) for n, _ in params}, centers=self.centers.centers,
                          center_alpha=self.centers.alpha)

    def loss_csv(self) -> str:
        msc = ("msc",) if self.config.use_molecule_branch else ()
        return csv_text(("step", *msc, "triplet", "center", "cls", "total"), self.loss_log)

    def metrics_csv(self) -> str:
        return csv_text(("epoch", *METRIC_COLUMNS), self.history)

    def save(self, out_dir) -> None:
        """Write the two CSVs, then the checkpoint, each through ``files.replace_with`` so that a stop part-way
        leaves no half-written file under a final name."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        replace_with(out / "loss_history.csv", lambda tmp: tmp.write_text(self.loss_csv()))
        replace_with(out / "metric_history.csv", lambda tmp: tmp.write_text(self.metrics_csv()))
        replace_with(out / "checkpoint.npz", lambda tmp: save_checkpoint(tmp, self.checkpoint))


def _pooled(samples: list[Sample]) -> np.ndarray:
    return np.stack([pool_frames(s.frames) for s in samples])


def eval_set(data: DatasetSplit, label_kind: str, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pooled features and labels of the test samples, and the positions of the queries among them.

    MoA evaluation reuses the queries drawn at preparation time; otherwise
    one query per class is drawn from the test set.  The gallery is every
    other test sample.
    """
    query = data.query if label_kind == "moa" else split_query_gallery(data.test, seed, label_kind)
    return _pooled(data.test), labels_of(data.test, label_kind), query


def evaluate(model: Model, inputs: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[dict, RetrievalResult]:
    """Retrieval over sequence embeddings and head accuracy on ``eval_set`` inputs.

    One forward embeds the test set: its query rows are scored against the
    other rows, and the head classifies every row.  Returns the metrics row,
    keyed by ``METRIC_COLUMNS``, and the retrieval result.
    """
    test, labels, query = inputs
    leaves = model.params.as_leaves()
    emb = model.sequence.forward(test, leaves)
    result = evaluate_retrieval(emb.data[query], labels[query], np.delete(emb.data, query, axis=0),
                                np.delete(labels, query))
    logits = model.head.forward(emb, leaves).data
    row = {"accuracy": accuracy(logits, labels), "rank1": result.rank1, "rank5": result.rank5,
           "rank10": result.rank10, "map": result.map}
    return row, result


def _objective(config: TrainConfig, model: Model, leaves, s_emb: ad.Tensor | None, v_emb: ad.Tensor, labels,
               class_labels, centers: CenterState, targets: ad.SoftTargets | None = None,
               masks: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[ad.Tensor, dict[str, float]]:
    """One batch's weighted training loss and per-term report.

    The alignment term is added only when molecule embeddings ``s_emb`` are
    given.  Its targets are ``targets`` if given, else built from
    ``class_labels``; the triplet's ``masks``, if not given, from ``labels``.
    A ``NonFiniteValue`` leaves with ``component`` set to the term being
    built, and its message starts with that name.
    """
    components: dict[str, ad.Tensor] = {}
    try:
        if s_emb is not None:
            sup = build_supervision(class_labels) if targets is None else targets
            temp = leaves["align.log_inv_temp"] if config.temperature_trainable else config.temperature
            components["msc"] = msc_loss(similarity(s_emb, v_emb, temp), sup, config.msc_direction)
        components["triplet"] = hard_triplet_loss(v_emb, labels, config.margin, masks)
        components["center"] = center_loss(v_emb, labels, centers)
        components["cls"] = classification_ce(model.head.forward(v_emb, leaves), labels)
        return total_loss(components, config.weights())
    except NonFiniteValue as exc:
        # The terms are built in this order, so the failing one is the first not yet built.
        exc.component = ("msc", "triplet", "center", "cls", "total")[len(components) + (s_emb is None)]
        exc.args = (f"{exc.component}: {exc.args[0]}", *exc.args[1:])
        raise


def _pk_constants(config: TrainConfig) -> tuple[ad.SoftTargets | None, tuple[np.ndarray, np.ndarray]]:
    """The alignment targets and triplet masks that every PK batch of a stage shares.

    A PK batch is P runs of K equal labels, distinct between runs, so its
    label pattern is that of ``np.repeat(np.arange(P), K)`` up to renaming,
    and so are the targets and masks.  The targets are None without the
    molecule branch, or when MoA labels, which vary inside a drug batch,
    fill the class matrix.  P = 1 raises ``DegenerateBatch``.
    """
    pattern = np.repeat(np.arange(config.batch_p), config.batch_k)
    targets = None
    if config.use_molecule_branch and config.class_matrix_labels == "stage":
        sup = build_supervision(pattern)
        targets = ad.soft_targets((sup.m_self, sup.m_class), config.msc_direction)
    return targets, ad.triplet_masks(pattern)


def _stage_steps(config: TrainConfig, train: list[Sample]) -> int:
    """The number of training steps of a stage: ``epochs`` times the whole PK batches in ``train``, at least one."""
    return config.epochs * max(1, len(train) // config.batch_size)


def _pk_schedule(classes: list[np.ndarray], p: int, k: int, seed: int, steps: int) -> np.ndarray:
    """Every PK batch of a stage, drawn before its loop: row ``s`` of the int32 ``[steps, P*K]`` result is
    ``pk_sample_indices(classes, p, k, seed, s)``."""
    batches = np.empty((steps, p * k), dtype=np.int32)
    for step in range(steps):
        batches[step] = pk_sample_indices(classes, p, k, seed, step)
    return batches


def run_stage(config: TrainConfig, data: DatasetSplit, init: Checkpoint | None = None, out_dir=None, *,
              batches: np.ndarray | None = None) -> StageResult:
    """One training stage over PK batches, with periodic retrieval evals.

    ``init`` warm-starts the encoders: its ``mol.*`` and ``seq.*`` parameters
    are loaded, and those the model lacks are ignored.  The SGD velocity
    and ``sgd_step``'s work vector live in the loop only: the velocity
    starts at -0.0, and nothing reads it after the stage.  A
    ``NonFiniteValue`` raised by the loop leaves with ``stage`` and ``step``
    attributes, and both are named in its message.

    Step ``s`` trains on row ``s`` of ``batches``, the stage's PK schedule:
    one row of P*K positions in ``data.train`` per step of every epoch.  A
    schedule that is not an ndarray of that shape, or has a position outside
    ``data.train``, raises ``ValueError`` before the stage builds anything.  Without
    ``batches`` the stage draws its own with ``_pk_schedule``, from the
    table of classes (``pk_classes``) and ``config.seed``.

    What every step would rebuild the same way is built once, before the
    loop: that schedule, the alignment targets and triplet masks of the PK
    layout (``_pk_constants``) and, when the molecule encoder is frozen,
    every train row's molecule embedding, so a step then builds no leaves
    for the ``mol.*`` parameters.  The center update takes a batch's labels
    as the ``[P, K]`` array drawn.
    """
    config.validate()
    train, test = data.train, data.test
    if not train or not test:
        raise ValueError("run_stage needs non-empty train and test sets")
    steps = _stage_steps(config, train)
    if batches is not None:
        if not isinstance(batches, np.ndarray) or batches.shape != (steps, config.batch_size):
            got = getattr(batches, "shape", type(batches))
            raise ValueError(f"batches must have shape {(steps, config.batch_size)}, got {got}")
        if batches.dtype.kind not in "iu" or (batches.size and not 0 <= batches.min() <= batches.max() < len(train)):
            raise ValueError(f"batches must hold integer positions in [0, {len(train)})")

    vocab = init.vocabulary if init is not None else build_vocabulary(sorted({s.smiles for s in train + test}))
    num_classes = int(labels_of(train + test, config.label_kind).max()) + 1
    frame_dim = train[0].frames.shape[1]

    model = Model(ModelConfig(
        vocab_size=vocab.size,
        frame_dim=frame_dim,
        num_classes=num_classes,
        embed_dim=config.embed_dim,
        token_dim=config.token_dim,
        mol_hidden=config.mol_hidden,
        seq_hidden=config.seq_hidden,
        seed=config.seed,
        include_molecule=config.use_molecule_branch,
    ))
    if config.use_molecule_branch and config.temperature_trainable:
        model.params.add("align.log_inv_temp", np.array(np.log(1.0 / config.temperature)))
    if init is not None:
        model.load_parameters(init.parameters, prefixes=("mol.", "seq."))

    # Per-sample features are fixed; precompute them once.
    train_pooled = _pooled(train)
    stage_labels = labels_of(train, config.label_kind)
    groups = pk_groups(stage_labels)
    class_labels = stage_labels if config.class_matrix_labels == "stage" else labels_of(train, "moa")
    counts = None
    if config.use_molecule_branch:
        ids = np.array([encode_tokens(s.smiles, vocab, config.max_tokens) for s in train])
        counts = token_count_matrix(ids, vocab.size)
    eval_inputs = eval_set(data, config.label_kind, config.seed)

    # Centers start at the initial model's per-class mean embeddings; a zero
    # start would make the center term an enormous pull toward the origin at
    # this scale (sum reduction over a 64-sample batch) and collapse the
    # encoder before the other losses can act.
    centers = CenterState(np.zeros((num_classes, config.embed_dim)), config.center_alpha)
    leaves = model.params.as_leaves()
    init_emb = model.sequence.forward(train_pooled, leaves).data
    for c, members in groups.items():
        centers.centers[c] = init_emb[members].mean(axis=0)
    if batches is None:
        batches = _pk_schedule(pk_classes(groups, config.batch_p, config.batch_k), config.batch_p,
                               config.batch_k, config.seed, steps)
    targets, masks = _pk_constants(config)
    # A frozen molecule encoder embeds each train row the same way at every step,
    # so the step reads none of its parameters.
    step_names = [n for n in model.params.names() if _trains(config, n)]
    frozen_mol = None if _trains(config, "mol.") else model.molecule.forward_counts(counts, leaves).data
    steps_per_epoch = steps // config.epochs
    velocity, scratch = np.full_like(model.params.flat, -0.0), np.empty_like(model.params.flat)
    loss_log: list[dict] = []
    history: list[dict] = []
    step = 0

    try:
        # A diverging step overflows before a guard sees it; the guards raise,
        # so numpy's own warnings would only repeat them.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for epoch in range(1, config.epochs + 1):
                for _ in range(steps_per_epoch):
                    idx = batches[step]
                    batch_labels = stage_labels[idx]
                    leaves = model.params.as_leaves(step_names)
                    v_emb = model.sequence.forward(train_pooled[idx], leaves)
                    if frozen_mol is not None:
                        s_emb = ad.constant(frozen_mol[idx])
                    elif config.use_molecule_branch:
                        s_emb = model.molecule.forward_counts(counts[idx], leaves)
                    else:
                        s_emb = None
                    total, report = _objective(config, model, leaves, s_emb, v_emb, batch_labels,
                                               class_labels[idx], centers, targets, masks)
                    ad.backward(total)
                    sgd_step(model.params, leaves, config.learning_rate, config.momentum, velocity, scratch)
                    update_centers(centers, v_emb.data, batch_labels.reshape(config.batch_p, config.batch_k))
                    report["step"] = step
                    loss_log.append(report)
                    step += 1
                if epoch % config.eval_every == 0 or epoch == config.epochs:
                    history.append({"epoch": epoch, **evaluate(model, eval_inputs)[0]})
    except NonFiniteValue as exc:
        # One handler around the whole loop, so a step pays nothing for it.
        exc.stage, exc.step = config.stage, step
        exc.args = (f"{exc.args[0]} (stage {config.stage}, step {step})", *exc.args[1:])
        raise

    result = StageResult(config=config, model=model, vocab=vocab, centers=centers,
                         history=history, loss_log=loss_log)
    if out_dir is not None:
        result.save(out_dir)
    return result


def _fit_pk(config: TrainConfig, data: DatasetSplit) -> TrainConfig:
    """Adjust (P, K) to the stage's class count, keeping P*K fixed."""
    num_classes = np.unique(labels_of(data.train, config.label_kind)).size
    p, k = choose_pk(config.batch_size, num_classes)
    return replace(config, batch_p=p, batch_k=k)


def _run_plan(plan, data: DatasetSplit, base: TrainConfig, out_dir=None) -> dict[str, StageResult]:
    """Run ``plan``, a chain of (name, config overrides) in which each stage warm-starts from the one before.

    Stage ``name`` writes to ``out_dir/name``; returns the results by name.  Before any stage trains,
    each fitted config's class table must hold P classes of K samples, or ``InsufficientClasses``
    names the stage; its PK layout must give every anchor a positive and a negative, or
    ``DegenerateBatch`` names the stage (P = 1, as when the train set holds one class of the
    stage's label kind); and then each fitted config must validate.  Consecutive stages that share the
    label kind, P, K, seed and step count train on one PK schedule, the only one kept alive.
    """
    out = Path(out_dir) if out_dir is not None else None
    configs = {name: _fit_pk(replace(base, **overrides), data) for name, overrides in plan}
    classes = {}
    for name, cfg in configs.items():
        try:
            classes[name] = pk_classes(pk_groups(labels_of(data.train, cfg.label_kind)), cfg.batch_p, cfg.batch_k)
            _pk_constants(cfg)
        except (InsufficientClasses, DegenerateBatch) as exc:
            raise type(exc)(f"stage {name}: {exc}") from exc
    for cfg in configs.values():
        cfg.validate()
    results: dict[str, StageResult] = {}
    drawn = batches = prev = None
    for name, cfg in configs.items():
        key = (cfg.label_kind, cfg.batch_p, cfg.batch_k, cfg.seed, _stage_steps(cfg, data.train))
        if key != drawn:
            batches = None  # let the last schedule go before the next one is drawn
            drawn, batches = key, _pk_schedule(classes[name], *key[1:])
        prev = results[name] = run_stage(cfg, data, init=prev and prev.checkpoint, out_dir=out and out / name,
                                         batches=batches)
    return results


@dataclass
class PipelineResult:
    warmup: StageResult      # sequence-only drug training
    pretrain: StageResult    # dual-branch drug training
    finetune: StageResult    # MoA fine-tuning with frozen molecule encoder

    @property
    def final(self) -> dict:
        return self.finetune.final


def run_strategy(strategy: str, data: DatasetSplit, base: TrainConfig, out_dir=None):
    """Drug-recognition training strategies.

    S1: sequence encoder only (no alignment branch, no molecule encoder).
    S2: full dual-branch model from fresh initialization.
    S3: dual-branch model whose sequence encoder starts from S1's weights.
    Returns (report, StageResult of the last run).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {tuple(STRATEGIES)}")
    plan = STRATEGIES[strategy]
    result = _run_plan(plan, data, base, out_dir)[plan[-1][0]]
    row = {**result.final, "strategy": strategy, "initialization": "fresh" if len(plan) == 1 else "s1_warm_start"}
    row.pop("epoch")
    return row, result


def run_pipeline(data: DatasetSplit, base: TrainConfig, out_dir=None) -> PipelineResult:
    """Full protocol: S3-style drug pretraining, then MoA fine-tuning."""
    return PipelineResult(**_run_plan(PIPELINE, data, base, out_dir))


def sweep_center_weight(base: TrainConfig, weights: list[float], data: DatasetSplit, out_dir=None):
    """One full pipeline per center-loss weight, in out_dir/w<weight>; everything else fixed."""
    if not weights:
        raise ValueError("weights must be non-empty")
    for w in weights:
        if not 0 <= w < math.inf:  # NaN fails both comparisons
            raise ValueError(f"weights must be finite and non-negative, got {w:g}")
    names = [f"w{w:g}" for w in weights]
    if len(set(names)) < len(names):
        raise ValueError(f"weights must give distinct directory names, got {', '.join(names)}")
    out = Path(out_dir) if out_dir is not None else None
    rows = []
    for w, name in zip(weights, names):
        final = run_pipeline(data, replace(base, w_center=float(w)), out_dir=out and out / name).final
        rows.append({"weight": float(w), "rank1": final["rank1"], "map": final["map"],
                     "accuracy": final["accuracy"]})
    if out is not None:  # the first stage made it
        replace_with(out / "sweep.csv", lambda tmp: tmp.write_text(csv_text(SWEEP_COLUMNS, rows)))
    return rows


# ---------------------------------------------------------------------------
# Finite-difference gradient suite
# ---------------------------------------------------------------------------


def _triplet_safe(rng: np.random.Generator, b: int, d: int):
    """Features whose mining decisions sit clear of ties and hinge kinks."""
    labels = np.arange(b) % 2
    while True:
        feats = rng.normal(scale=1.5, size=(b, d))
        dists = ((feats[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
        off = dists[~np.eye(b, dtype=bool)]
        gaps = np.abs(off[:, None] - off[None, :])
        if np.min(gaps[gaps > 0], initial=np.inf) < 1e-3:
            continue
        same = labels[:, None] == labels[None, :]
        pos = np.where(same & ~np.eye(b, dtype=bool), dists, -np.inf).max(axis=1)
        neg = np.where(~same, dists, np.inf).min(axis=1)
        if np.abs(pos - neg + 0.3).min() > 1e-3:
            return feats, labels


def gradient_check_suite(eps: float = 1e-5) -> list[tuple[str, float]]:
    """Central finite-difference checks for every loss, both encoders and the head."""
    rng = np.random.default_rng(20240917)
    b, d = 4, 8
    labels = np.array([0, 0, 1, 1])
    checks: list[tuple[str, float]] = []

    s0 = rng.normal(size=(b, d))
    v0 = rng.normal(size=(b, d))

    def f_msc(leaves):
        sim = similarity(leaves[0], leaves[1], 0.07)
        return msc_loss(sim, build_supervision(labels))

    checks.append(("msc_loss", ad.finite_difference_check(f_msc, [s0, v0], eps)))

    feats, tri_labels = _triplet_safe(rng, 8, 4)
    checks.append((
        "hard_triplet_loss",
        ad.finite_difference_check(lambda l: hard_triplet_loss(l[0], tri_labels, 0.3), [feats], eps),
    ))

    state = CenterState(centers=rng.normal(size=(2, d)))
    checks.append((
        "center_loss",
        ad.finite_difference_check(lambda l: center_loss(l[0], labels, state), [v0], eps),
    ))

    logits0 = rng.normal(size=(b, 3))
    cls_labels = np.array([0, 2, 1, 0])
    checks.append((
        "classification_ce",
        ad.finite_difference_check(lambda l: classification_ce(l[0], cls_labels), [logits0], eps),
    ))

    # The shipped encoders and head, wired through a Model and checked via a
    # fixed scalar projection of their output.
    vocab_size, token_dim, hidden, out_dim, frame_dim = 9, 4, 5, 6, 4
    model = Model(ModelConfig(vocab_size=vocab_size, frame_dim=frame_dim, num_classes=2, embed_dim=out_dim,
                              token_dim=token_dim, mol_hidden=hidden, seq_hidden=hidden))
    mol_names, seq_names, head_names = ([n for n in model.params.names() if n.startswith(prefix)]
                                        for prefix in ("mol.", "seq.", "head."))
    ids = np.array([[2, 3, 3, 0, 0], [4, 5, 6, 7, 0], [8, 2, 0, 0, 0], [5, 5, 5, 5, 5]])
    counts = token_count_matrix(ids, vocab_size)
    proj = ad.constant(rng.normal(size=(out_dim, 1)))
    mol_params = [rng.normal(scale=0.5, size=model.params[n].value.shape) for n in mol_names]

    def f_mol(leaves):
        s_emb = model.molecule.forward_counts(counts, dict(zip(mol_names, leaves)))
        return ad.sum_(ad.matmul(s_emb, proj))

    checks.append(("molecule_encoder", ad.finite_difference_check(f_mol, mol_params, eps)))

    pooled_frames = rng.normal(size=(b, 2 * frame_dim))
    seq_params = [rng.normal(scale=0.5, size=model.params[n].value.shape) for n in seq_names]

    def f_seq(leaves):
        return ad.sum_(ad.matmul(model.sequence.forward(pooled_frames, dict(zip(seq_names, leaves))), proj))

    checks.append(("sequence_encoder", ad.finite_difference_check(f_seq, seq_params, eps)))

    # Full model composed with the training objective at the default config.
    head_params = [rng.normal(scale=0.5, size=model.params[n].value.shape) for n in head_names]
    tri_feats_fix, _ = _triplet_safe(rng, b, out_dim)
    full_params = mol_params + seq_params + head_params
    full_state = CenterState(centers=rng.normal(size=(2, out_dim)))

    def f_full(leaves):
        lv = dict(zip(model.params.names(), leaves))
        s_emb = model.molecule.forward_counts(counts, lv)
        # A fixed offset keeps the triplet mining clear of ties.
        v_emb = ad.add(model.sequence.forward(pooled_frames, lv), ad.constant(tri_feats_fix))
        return _objective(TrainConfig(), model, lv, s_emb, v_emb, labels, labels, full_state)[0]

    checks.append(("full_model_total", ad.finite_difference_check(f_full, full_params, eps)))
    return checks
