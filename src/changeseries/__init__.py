"""Continuous building-change detection over image time series, desk scale.

Pipeline: a shared-weight convolutional encoder embeds every image of a
series, per-scale temporal self-attention refines the features across
time, parameter-free pairwise differences feed a change decoder alongside
a segmentation decoder, a multi-task soft-Jaccard objective trains both
heads, and an exact per-pixel Markov-network decoder fuses the
probabilistic outputs into one temporally consistent map series.
"""

__version__ = "0.1.0"

from .backbone import BackboneConfig, load_checkpoint, pyramid_dims, save_checkpoint
from .changefeat import EdgeSet, build_edge_set, change_pyramid
from .markov import MapSeries, build_potentials, integrate, map_decode_chain, map_decode_general
from .model import ChangeModel, ModelConfig
from .objective import EvalReport, binary_metrics, evaluate, jaccard_loss, multitask_loss
from .rng import SeededRng
from .synthgen import Scene, SceneSpec, corrupt_to_probabilities, generate
from .temporal import TemporalConfig, TemporalRefiner, temporal_encoding
from .tensor import export_pgm, read_raster, write_raster
from .trainer import TrainConfig, TrainResult, train

__all__ = [
    "BackboneConfig",
    "ChangeModel",
    "EdgeSet",
    "EvalReport",
    "MapSeries",
    "ModelConfig",
    "Scene",
    "SceneSpec",
    "SeededRng",
    "TemporalConfig",
    "TemporalRefiner",
    "TrainConfig",
    "TrainResult",
    "binary_metrics",
    "build_edge_set",
    "build_potentials",
    "change_pyramid",
    "corrupt_to_probabilities",
    "evaluate",
    "export_pgm",
    "generate",
    "integrate",
    "jaccard_loss",
    "load_checkpoint",
    "map_decode_chain",
    "map_decode_general",
    "multitask_loss",
    "pyramid_dims",
    "read_raster",
    "save_checkpoint",
    "temporal_encoding",
    "train",
    "write_raster",
    "__version__",
]
