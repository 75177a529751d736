"""Turn contexts into item scores and top-k recommendations.

Three scoring functions share the same contract (higher is better, the
ranking is what matters):

* softmax: the conditional item distribution of a single context.
* mean_aggregate: the average of per-context softmax distributions; kept
  as the comparison baseline that over-amplifies broadly relevant items.
* fesf: log-sum-exp of the per-context logits with a temperature inside
  the exponent. Not normalized; as the temperature goes to zero it ranks
  by the best single context (max-pool), which damps popularity bias.

Scoring is inference only and works on plain numpy values. It is
item-major: one ``(contexts, items)`` logit product per call, reduced over
the contexts axis in place, so every reduction runs over contiguous rows
of the item axis. Top-k is exact without a full sort: ``np.partition``
finds the k-th best score, and only the candidates at or above it are
sorted, so items tied at the boundary are all kept and the result equals
the full sort's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as npa_model
from .errors import ConfigError
from .tensor import no_grad

SOFTMAX = "softmax"
MEAN_AGGREGATE = "mean_aggregate"
FESF = "fesf"
_KINDS = (SOFTMAX, MEAN_AGGREGATE, FESF)

__all__ = [
    "FESF",
    "MEAN_AGGREGATE",
    "Recommendation",
    "SOFTMAX",
    "ScoreVector",
    "check_scoring",
    "rank_items",
    "recommend_topk",
    "score_contexts",
    "score_fesf",
    "score_mean",
    "score_softmax",
]


@dataclass
class ScoreVector:
    scores: np.ndarray


@dataclass
class Recommendation:
    """Ranked non-basket items with their scores, best first."""

    item_ids: list
    scores: list


def _context_matrix(contexts) -> np.ndarray:
    c = np.asarray(contexts, dtype=np.float64)
    if c.ndim == 1:
        c = c[None, :]
    if c.ndim != 2 or c.shape[0] == 0:
        raise ConfigError(f"expected one or more context vectors, got shape {c.shape}")
    return c


def score_softmax(context, embeddings) -> ScoreVector:
    """p(item | context): softmax over the item-embedding dot products."""
    c = np.asarray(context, dtype=np.float64)
    e = np.asarray(embeddings, dtype=np.float64)
    if c.ndim != 1 or e.ndim != 2 or e.shape[1] != c.shape[0]:
        raise ConfigError(f"score_softmax: embeddings {e.shape} vs context {c.shape}")
    logits = e @ c
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()
    return ScoreVector(p)


def score_mean(contexts, embeddings) -> ScoreVector:
    """Average of the per-context softmax distributions."""
    c = _context_matrix(contexts)
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != c.shape[1]:
        raise ConfigError(f"score_mean: embeddings {e.shape} vs contexts {c.shape}")
    p = c @ e.T  # (contexts, items)
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return ScoreVector(p.mean(axis=0))


def score_fesf(contexts, embeddings, temperature: float = 1.0) -> ScoreVector:
    """log sum_h exp(e . c_h / T); unnormalized, ranking is the contract."""
    if temperature <= 0:
        raise ConfigError("fesf temperature must be positive")
    c = _context_matrix(contexts)
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != c.shape[1]:
        raise ConfigError(f"score_fesf: embeddings {e.shape} vs contexts {c.shape}")
    logits = c @ e.T  # (contexts, items)
    if temperature != 1.0:
        logits /= temperature
    m = logits.max(axis=0)
    logits -= m
    np.exp(logits, out=logits)
    scores = logits.sum(axis=0)
    np.log(scores, out=scores)
    scores += m
    return ScoreVector(scores)


def check_scoring(kind: str, contexts: int) -> None:
    """Reject an unknown scoring kind, or one that cannot score ``contexts``
    contexts per step."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown scoring kind {kind!r}")
    if kind == SOFTMAX and contexts != 1:
        raise ConfigError("softmax scoring expects exactly one context")


def score_contexts(contexts, embeddings, kind: str | None = None,
                   fesf_temperature: float = 1.0) -> ScoreVector:
    """Dispatch one of the scoring kinds over a stack of contexts; kind None
    means softmax for a single context and fesf for several."""
    c = _context_matrix(contexts)
    if kind is None:
        kind = SOFTMAX if c.shape[0] == 1 else FESF
    check_scoring(kind, c.shape[0])
    if kind == SOFTMAX:
        return score_softmax(c[0], embeddings)
    if kind == MEAN_AGGREGATE:
        return score_mean(c, embeddings)
    return score_fesf(c, embeddings, fesf_temperature)


def rank_items(scores: np.ndarray, exclude=(), k: int | None = None):
    """Item ids by descending score, ties to the lower id, exclusions first removed.

    Non-finite scores are dropped; k=None returns every finite item. An
    excluded id outside [0, len(scores)) raises ConfigError.
    """
    if k is not None and k < 0:
        raise ConfigError(f"rank_items: k must be >= 0, got {k}")
    neg = -np.asarray(scores, dtype=np.float64)
    neg[~np.isfinite(neg)] = np.inf
    drop = np.asarray([int(i) for i in exclude], dtype=np.int64)
    bad = drop[(drop < 0) | (drop >= neg.size)]
    if bad.size:
        raise ConfigError(f"rank_items: excluded item id {bad[0]} out of range [0, {neg.size})")
    neg[drop] = np.inf
    limit = np.finfo(np.float64).max  # every finite score is a candidate
    if k is not None and 0 < k < neg.size:
        limit = min(limit, np.partition(neg, k - 1)[k - 1])
    # Every item tied with the k-th best is a candidate, so the boundary
    # tie-break by id is the full sort's.
    ids = np.flatnonzero(neg <= limit)
    # ids ascend, so a stable sort by value breaks ties toward the lower id.
    order = ids[np.argsort(neg[ids], kind="stable")]
    if k is not None:
        order = order[:k]
    return order.tolist()


def recommend_topk(basket, config, params, k: int,
                   scoring_kind: str | None = None,
                   fesf_temperature: float = 1.0,
                   rng_seed=None) -> Recommendation:
    """Top-k completion of a basket; basket members never appear.

    The basket is checked as training and evaluation check theirs (length,
    id range, no repeated id), then run forward inside ``tensor.no_grad``,
    so no autodiff graph is built and the values are those of a recording
    pass; the final-step context(s) are scored (softmax for a single context,
    fesf for multi-context models unless overridden), and the best k
    non-members are returned, ties broken toward the lower item id.
    rng_seed drives MC pattern sampling; None means the fixed seed 0, so
    unseeded calls repeat.
    """
    items = [int(i) for i in basket]
    if not items:
        raise ConfigError("recommend_topk: empty basket (cold start is out of scope)")
    npa_model.check_baskets([items], [",".join(map(str, items))], config, "recommend_topk")
    if k < 1 or k > config.num_items - len(items):
        raise ConfigError(f"k must be in [1, {config.num_items - len(items)}], got {k}")
    with no_grad():
        state = npa_model.forward(items, config, params, rng_seed=rng_seed)
    final = state.context.data[:, -1]  # (contexts, embedding_dim)
    emb = npa_model.output_embeddings(params).data
    vec = score_contexts(final, emb, scoring_kind, fesf_temperature)
    ranked = rank_items(vec.scores, exclude=items, k=k)
    return Recommendation(item_ids=ranked, scores=vec.scores[ranked].tolist())
