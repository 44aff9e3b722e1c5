"""Image clustering by pairwise similarity, with spatial transformer layers.

The package is self-contained: a small reverse-mode autodiff tensor engine
(`tensor`, `nn`, `optim`), differentiable image warping (`stn`), the pairwise
clustering objective and training loop (`dac`), exact clustering metrics
(`metrics`), IDX dataset handling (`dataio`), and an experiment harness with
a CLI (`harness`, `cli`).
"""

from .dac import (BackboneConfig, Backbone, FitResult, ThresholdSchedule,
                  TrainSettings, cluster_assign, dac_loss, fit,
                  generate_pair_labels, pairwise_similarity, predict_features)
from .dataio import AugmentConfig, ImageSet, load_idx, make_synthetic_glyphs, save_idx
from .errors import (CheckpointError, ConfigurationError, GradientNaN,
                     GraphReleased, IdxFormatError, NoSelectedPairs, ShapeError)
from .metrics import ari, clustering_accuracy, nmi
from .tensor import Tensor, no_grad

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig", "Backbone", "BackboneConfig", "CheckpointError",
    "ConfigurationError", "FitResult", "GradientNaN", "GraphReleased", "IdxFormatError",
    "ImageSet", "NoSelectedPairs", "ShapeError", "Tensor", "ThresholdSchedule",
    "TrainSettings", "ari", "cluster_assign", "clustering_accuracy", "dac_loss",
    "fit", "generate_pair_labels", "load_idx", "make_synthetic_glyphs", "nmi",
    "no_grad", "pairwise_similarity", "predict_features", "save_idx",
]
