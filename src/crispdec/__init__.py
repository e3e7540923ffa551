"""Uncertainty-guided segmentation decoder with dynamic multi-scale fusion,
boundary-aware losses, and a weakly supervised training loop, all on a
self-contained numpy autodiff core.
"""

from .decoder import (
    DecoderOutputs,
    DecoderParams,
    FeaturePyramid,
    decoder_forward,
)
from .fileio import (
    IGNORE,
    FormatError,
    load_checkpoint,
    read_ctsr,
    read_pgm,
    save_checkpoint,
    write_ctsr,
    write_pgm,
)
from .geometry import boundary_band, boundary_seeds, distance_to_set, signed_distance
from .loop import AdamW, TeacherState, TrainConfig, TrainingDiverged, ema_update, relabel, train
from .losses import PseudoLabelSet, mix_uncertainty, total_loss
from .metrics import boundary_f1, ece, evaluate, miou, score, structural_scores
from .model import ModelConfig, SegModel
from .synthdata import CorruptionSpec, Sample, SceneSpec, generate_scene, make_dataset
from .tensor import Tensor, bilinear_upsample, cat, conv2d, finite_diff_grad, softmax

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "CorruptionSpec",
    "DecoderOutputs",
    "DecoderParams",
    "FeaturePyramid",
    "FormatError",
    "IGNORE",
    "ModelConfig",
    "PseudoLabelSet",
    "Sample",
    "SceneSpec",
    "SegModel",
    "TeacherState",
    "Tensor",
    "TrainConfig",
    "TrainingDiverged",
    "bilinear_upsample",
    "boundary_band",
    "boundary_f1",
    "boundary_seeds",
    "cat",
    "conv2d",
    "decoder_forward",
    "distance_to_set",
    "ece",
    "ema_update",
    "evaluate",
    "finite_diff_grad",
    "generate_scene",
    "load_checkpoint",
    "make_dataset",
    "miou",
    "mix_uncertainty",
    "read_ctsr",
    "read_pgm",
    "relabel",
    "save_checkpoint",
    "score",
    "signed_distance",
    "softmax",
    "structural_scores",
    "total_loss",
    "train",
    "write_ctsr",
    "write_pgm",
]
