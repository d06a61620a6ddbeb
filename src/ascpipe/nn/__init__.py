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
    one_hot,
    predict,
    train,
)
