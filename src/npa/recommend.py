"""Serve a basket: item scores, top-k recommendations and attention export.

Three scoring functions share the same contract (higher is better, the
ranking is what matters):

* softmax: the conditional item distribution of a single context.
* mean_aggregate: the average of per-context softmax distributions; kept
  as the comparison baseline that over-amplifies broadly relevant items.
* fesf: log-sum-exp of the per-context logits with a temperature inside
  the exponent. Not normalized; as the temperature goes to zero it ranks
  by the best single context (max-pool), which damps popularity bias.

Scoring is inference only and works on plain numpy values, with one
``(contexts, items)`` logit product per call, against a row-major
transposed copy of the item embeddings. Inside ``tensor.no_grad`` that
copy is kept and reused while the embeddings are the same array, which
is then read-only (``tensor._kept``); outside it the copy is made per
call, so both give the same bits. ``recommend_topk`` and
``export_attention`` check a basket, run it forward and rank a step's
contexts inside ``tensor.no_grad``, by the same routines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import model as npa_model
from .errors import ConfigError
from .tensor import _kept, _softmax_rows, no_grad

SOFTMAX = "softmax"
MEAN_AGGREGATE = "mean_aggregate"
FESF = "fesf"
_KINDS = (SOFTMAX, MEAN_AGGREGATE, FESF)
EXPORT_SCHEMA_VERSION = 1

__all__ = [
    "EXPORT_SCHEMA_VERSION",
    "FESF",
    "MEAN_AGGREGATE",
    "Recommendation",
    "SOFTMAX",
    "ScoreVector",
    "check_scoring",
    "export_attention",
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


def _logits(contexts, embeddings, caller: str) -> np.ndarray:
    """(contexts, items) dot products of a context stack with the item
    embeddings, through their row-major transposed copy (module docstring)."""
    c = _context_matrix(contexts)
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != c.shape[1]:
        raise ConfigError(f"{caller}: embeddings {e.shape} vs contexts {c.shape}")
    return c @ _kept("transpose", [e], e.T.copy)


def score_softmax(context, embeddings) -> ScoreVector:
    """p(item | context): softmax over the item-embedding dot products."""
    c = np.asarray(context, dtype=np.float64)
    e = np.asarray(embeddings, dtype=np.float64)
    if c.ndim != 1 or e.ndim != 2 or e.shape[1] != c.shape[0]:
        raise ConfigError(f"score_softmax: embeddings {e.shape} vs context {c.shape}")
    return ScoreVector(_softmax_rows(e @ c))


def score_mean(contexts, embeddings) -> ScoreVector:
    """Average of the per-context softmax distributions."""
    return ScoreVector(_softmax_rows(_logits(contexts, embeddings, "score_mean")).mean(axis=0))


def score_fesf(contexts, embeddings, temperature: float = 1.0) -> ScoreVector:
    """log sum_h exp(e . c_h / T); unnormalized, ranking is the contract."""
    # Written as "not > 0" so that NaN fails too.
    if not temperature > 0:
        raise ConfigError("fesf temperature must be positive")
    if temperature == float("inf"):
        raise ConfigError("fesf temperature must be finite")
    logits = _logits(contexts, embeddings, "score_fesf")
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
    drop = [int(i) for i in exclude]
    bad = [i for i in drop if not 0 <= i < neg.size]
    if bad:
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


def _checked_basket(basket, config, caller: str):
    """The basket's ids as ints, checked as training checks its baskets, and
    the same ids as forward takes them without checking again. A basket
    that check_baskets already accepted (model._Checked) is not checked
    again."""
    if not isinstance(basket, npa_model._Checked):
        ids = npa_model._item_ids(basket, caller)
        if ids.ndim != 1:
            raise ConfigError(f"{caller}: expected a 1-d id sequence, got shape {ids.shape}")
        if not ids.size:
            raise ConfigError(f"{caller}: empty basket")
        npa_model.check_baskets([ids], [",".join(map(str, ids.tolist()))], config, caller)
        basket = npa_model._Checked(ids)
    return basket.ids.tolist(), basket


def _ranked(contexts, emb, exclude, k: int, scoring_kind, fesf_temperature) -> Recommendation:
    """The best k items for one step's contexts, excluded ids left out."""
    vec = score_contexts(contexts, emb, scoring_kind, fesf_temperature)
    ranked = rank_items(vec.scores, exclude=exclude, k=k)
    return Recommendation(item_ids=ranked, scores=vec.scores[ranked].tolist())


def recommend_topk(basket, config, params, k: int,
                   scoring_kind: str | None = None,
                   fesf_temperature: float = 1.0,
                   rng_seed=None) -> Recommendation:
    """Top-k completion of a basket; basket members never appear.

    The final step's contexts are scored by score_contexts, and the best k
    non-members are returned, ties to the lower item id. rng_seed drives
    MC pattern sampling; None means the fixed seed 0, so unseeded calls
    repeat.
    """
    items, checked = _checked_basket(basket, config, "recommend_topk")
    if k < 1 or k > config.num_items - len(items):
        raise ConfigError(f"k must be in [1, {config.num_items - len(items)}], got {k}")
    with no_grad():
        state = npa_model.forward(checked, config, params, rng_seed=rng_seed)
        return _ranked(state.context.data[:, -1], npa_model.output_embeddings(params).data,
                       items, k, scoring_kind, fesf_temperature)


def _fmt(values) -> str:
    return ",".join(f"{v:.8e}" for v in np.asarray(values, dtype=np.float64))


def export_attention(basket, config, params, path, k: int = 10, rng_seed=None,
                     scoring_kind=None, fesf_temperature: float = 1.0) -> None:
    """Write one basket's per-step attention records as key=value lines.

    One block per prefix step: the prefix, every layer/channel's pattern
    belief, the context-attention weights over the prefix items, and the
    step's top-k recommendations (k >= 1, clipped to the candidate count),
    ranked as ``recommend_topk`` ranks them. rng_seed is
    ``recommend_topk``'s.
    """
    items, checked = _checked_basket(basket, config, "export_attention")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    with no_grad():
        state = npa_model.forward(checked, config, params, rng_seed=rng_seed)
        final = state.context.data  # (contexts, steps, dim)
        emb = npa_model.output_embeddings(params).data
        # The prefix of step t holds t + 1 distinct items, so as many candidates drop out.
        tops = [_ranked(final[:, t, :], emb, items[:t + 1], min(k, config.num_items - t - 1),
                        scoring_kind, fesf_temperature) for t in range(len(items))]
    plan = npa_model.layer_channel_plan(config)

    lines = [
        f"schema_version={EXPORT_SCHEMA_VERSION}",
        f"basket={','.join(str(i) for i in items)}",
        f"variant={config.variant}",
        f"num_layers={config.num_layers}",
        f"channels={','.join(str(c) for c, _, _ in plan)}",
        f"num_patterns={config.num_patterns}",
        f"steps={len(items)}",
    ]
    for t, top in enumerate(tops):
        lines.append(f"step={t} prefix={','.join(str(i) for i in items[:t + 1])}")
        for li, states in enumerate(state.unit_states):
            for ci, unit_state in enumerate(states):
                abar = unit_state.prefix_attention.data[t]
                lines.append(f"pattern step={t} layer={li} channel={ci} probs={_fmt(abar)}")
                b_row = unit_state.context_attention.data[t, :t + 1]
                lines.append(f"context step={t} layer={li} channel={ci} weights={_fmt(b_row)}")
        lines.append(f"topk step={t} items={','.join(str(i) for i in top.item_ids)}"
                     f" scores={_fmt(top.scores)}")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
