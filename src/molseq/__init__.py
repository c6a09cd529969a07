"""Dual-branch molecule/cell-sequence contrastive training toolkit.

Each name lives in its module: import the module, as in
``from molseq import train``, and use ``train.run_pipeline``.
"""

from . import autodiff, data, losses, metrics, model, smiles, train

__version__ = "0.1.0"

__all__ = ["autodiff", "data", "losses", "metrics", "model", "smiles", "train", "__version__"]
