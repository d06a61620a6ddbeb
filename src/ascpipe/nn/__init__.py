"""From-scratch CNN engine: graphs, layers, training, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .engine import Tape, backward, cross_entropy, forward, run_backward, run_forward
from .graph import (
    NON_TRAINABLE,
    LayerSpec,
    ModelGraph,
    fold_batchnorm,
    initialize,
)
from .optim import SgdMomentum
from .schedule import ScheduleConfig, cosine_restart_lr, cycle_position
from .train import (
    OnlineAugment,
    TrainResult,
    one_hot,
    predict,
    train,
)

__all__ = [
    "NON_TRAINABLE",
    "LayerSpec",
    "ModelGraph",
    "OnlineAugment",
    "ScheduleConfig",
    "SgdMomentum",
    "Tape",
    "TrainResult",
    "backward",
    "cosine_restart_lr",
    "cross_entropy",
    "cycle_position",
    "fold_batchnorm",
    "forward",
    "initialize",
    "load_checkpoint",
    "one_hot",
    "predict",
    "run_backward",
    "run_forward",
    "save_checkpoint",
    "train",
]
