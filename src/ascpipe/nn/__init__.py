"""From-scratch CNN engine: graphs, layers, training, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .engine import Tape, backward, cross_entropy, forward, run_backward, run_forward
from .graph import (
    KINDS,
    NON_TRAINABLE,
    LayerSpec,
    ModelGraph,
    clone_params,
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
    "KINDS",
    "NON_TRAINABLE",
    "LayerSpec",
    "ModelGraph",
    "OnlineAugment",
    "ScheduleConfig",
    "SgdMomentum",
    "Tape",
    "TrainResult",
    "backward",
    "clone_params",
    "cosine_restart_lr",
    "cross_entropy",
    "cycle_position",
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
