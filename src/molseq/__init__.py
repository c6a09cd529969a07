"""Dual-branch molecule/cell-sequence contrastive training toolkit."""

from . import autodiff, data, losses, metrics, model, smiles, train
from .autodiff import Tensor, backward, finite_difference_check
from .data import DatasetSplit, Sample, SyntheticSpec, generate_synthetic, load_manifest, prepare_split
from .losses import CenterState, SupervisionPair, build_supervision
from .metrics import RetrievalResult, accuracy, evaluate_retrieval, rank_gallery
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint
from .smiles import Vocabulary, build_vocabulary, canonical_smiles, encode_tokens, parse, tokenize
from .train import TrainConfig, run_pipeline, run_stage, run_strategy, sweep_center_weight

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "data",
    "losses",
    "metrics",
    "model",
    "smiles",
    "train",
    "Tensor",
    "backward",
    "finite_difference_check",
    "DatasetSplit",
    "Sample",
    "SyntheticSpec",
    "generate_synthetic",
    "load_manifest",
    "prepare_split",
    "CenterState",
    "SupervisionPair",
    "build_supervision",
    "RetrievalResult",
    "accuracy",
    "evaluate_retrieval",
    "rank_gallery",
    "Model",
    "ModelConfig",
    "load_checkpoint",
    "save_checkpoint",
    "Vocabulary",
    "build_vocabulary",
    "canonical_smiles",
    "encode_tokens",
    "parse",
    "tokenize",
    "TrainConfig",
    "run_pipeline",
    "run_stage",
    "run_strategy",
    "sweep_center_weight",
    "__version__",
]
