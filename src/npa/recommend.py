"""Turn contexts into item scores and top-k recommendations.

Three scoring functions share the same contract (higher is better, the
ranking is what matters):

* softmax: the conditional item distribution of a single context.
* mean_aggregate: the average of per-context softmax distributions; kept
  as the comparison baseline that over-amplifies broadly relevant items.
* fesf: log-sum-exp of the per-context logits with a temperature inside
  the exponent. Not normalized; as the temperature goes to zero it ranks
  by the best single context (max-pool), which damps popularity bias.

Scoring is inference only and works on plain numpy values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as npa_model
from .errors import ConfigError

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
    scoring_kind: str
    fesf_temperature: float = 1.0


@dataclass
class Recommendation:
    """Ranked non-basket items with their scores, best first."""

    item_ids: list
    scores: list
    k: int


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
    return ScoreVector(p, SOFTMAX)


def score_mean(contexts, embeddings) -> ScoreVector:
    """Average of the per-context softmax distributions."""
    c = _context_matrix(contexts)
    probs = [score_softmax(row, embeddings).scores for row in c]
    return ScoreVector(np.mean(probs, axis=0), MEAN_AGGREGATE)


def score_fesf(contexts, embeddings, temperature: float = 1.0) -> ScoreVector:
    """log sum_h exp(e . c_h / T); unnormalized, ranking is the contract."""
    if temperature <= 0:
        raise ConfigError("fesf temperature must be positive")
    c = _context_matrix(contexts)
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != c.shape[1]:
        raise ConfigError(f"score_fesf: embeddings {e.shape} vs contexts {c.shape}")
    logits = (e @ c.T) / temperature  # (items, contexts)
    m = logits.max(axis=1, keepdims=True)
    scores = np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]
    return ScoreVector(scores, FESF, temperature)


def score_contexts(contexts, embeddings, kind: str, fesf_temperature: float = 1.0) -> ScoreVector:
    """Dispatch one of the scoring kinds over a stack of contexts."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown scoring kind {kind!r}")
    c = _context_matrix(contexts)
    if kind == SOFTMAX:
        if c.shape[0] != 1:
            raise ConfigError("softmax scoring expects exactly one context")
        return score_softmax(c[0], embeddings)
    if kind == MEAN_AGGREGATE:
        return score_mean(c, embeddings)
    return score_fesf(c, embeddings, fesf_temperature)


def rank_items(scores: np.ndarray, exclude=(), k: int | None = None):
    """Item ids by descending score, ties to the lower id, exclusions first removed."""
    s = np.asarray(scores, dtype=np.float64).copy()
    exclude = np.asarray(sorted(set(int(i) for i in exclude)), dtype=np.int64)
    if exclude.size:
        s[exclude] = -np.inf
    order = np.lexsort((np.arange(s.size), -s))
    order = order[np.isfinite(s[order])]
    if k is not None:
        order = order[:k]
    return order.tolist()


def recommend_topk(basket, config, params, k: int,
                   scoring_kind: str | None = None,
                   fesf_temperature: float = 1.0,
                   rng_seed=None) -> Recommendation:
    """Top-k completion of a basket; basket members never appear.

    The full basket is run forward, the final-step context(s) are scored
    (softmax for a single context, fesf for multi-context models unless
    overridden), and the best k non-members are returned, ties broken
    toward the lower item id. rng_seed drives MC pattern sampling; None
    means the fixed seed 0, so unseeded calls repeat.
    """
    items = [int(i) for i in basket]
    if not items:
        raise ConfigError("recommend_topk: empty basket (cold start is out of scope)")
    members = set(items)
    if k < 1 or k > config.num_items - len(members):
        raise ConfigError(
            f"k must be in [1, {config.num_items - len(members)}], got {k}")
    state = npa_model.forward(items, config, params, rng_seed=rng_seed)
    final = np.stack([ctx.data[-1] for ctx in state.contexts])
    if scoring_kind is None:
        scoring_kind = SOFTMAX if final.shape[0] == 1 else FESF
    emb = npa_model.output_embeddings(params).data
    vec = score_contexts(final, emb, scoring_kind, fesf_temperature)
    ranked = rank_items(vec.scores, exclude=members, k=k)
    return Recommendation(item_ids=ranked,
                          scores=[float(vec.scores[i]) for i in ranked], k=k)
