"""Codebook-attention basket completion.

The public surface groups into: a minimal autodiff tensor engine
(``npa.tensor``, ``npa.optim``), the vector-quantized attention unit
(``npa.vqa``), the multi-layer model (``npa.model``), training
objectives (``npa.training``), scoring, top-k recommendation and
attention export (``npa.recommend``), datasets and the planted-pattern
generator (``npa.data``), ranking metrics and baselines (``npa.metrics``),
and persistence (``npa.checkpoint``).

Importing the package pins BLAS to one thread, unless the process already
set a count: it sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 where they are unset, before numpy loads. The
output head's promise that a row's bits do not depend on the other rows
(``tensor.BLOCK_ROWS``) holds only with one BLAS thread. A caller that
imports numpy before ``npa`` must set the variables itself. The
variables stay set for the rest of the process and are inherited by its
child processes, so an OpenMP or MKL library loaded after ``npa`` (torch
or scikit-learn, say) runs on one thread too.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
