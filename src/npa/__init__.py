"""Codebook-attention basket completion.

The public surface groups into: a minimal autodiff tensor engine
(``npa.tensor``, ``npa.optim``), the vector-quantized attention unit
(``npa.vqa``), the multi-layer model (``npa.model``), training
objectives (``npa.training``), scoring, top-k recommendation and
attention export (``npa.recommend``), datasets and the planted-pattern
generator (``npa.data``), ranking metrics and baselines (``npa.metrics``),
and persistence (``npa.checkpoint``).
"""

from .data import Basket, Catalog, EvalInstance, SynthSpec, gen_synthetic, load_baskets, make_eval_instances, split_dataset
from .metrics import CountBaseline, MetricReport, compute_metrics
from .model import ContextState, ModelConfig, NpaParams, forward, init_params, named_parameters
from .optim import AdamW
from .recommend import Recommendation, recommend_topk, score_fesf, score_mean, score_softmax
from .tensor import Tensor, backward
from .training import LossReport, TrainConfig, batch_loss, train
from .vqa import ExtractionStrategy, VqaParams

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "Basket",
    "Catalog",
    "ContextState",
    "CountBaseline",
    "EvalInstance",
    "ExtractionStrategy",
    "LossReport",
    "MetricReport",
    "ModelConfig",
    "NpaParams",
    "Recommendation",
    "SynthSpec",
    "Tensor",
    "TrainConfig",
    "VqaParams",
    "backward",
    "batch_loss",
    "compute_metrics",
    "forward",
    "gen_synthetic",
    "init_params",
    "load_baskets",
    "make_eval_instances",
    "named_parameters",
    "recommend_topk",
    "score_fesf",
    "score_mean",
    "score_softmax",
    "split_dataset",
    "train",
]
