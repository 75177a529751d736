"""Vector-quantized attention: codebook lookup and context estimation.

A unit holds a table of trainable combination-pattern vectors (the
codebook) and two attention stages. Stage one scores every item of a
basket prefix against the codebook and averages the per-item
distributions into a prefix-level pattern belief. Stage two turns an
extracted pattern vector into a query over the prefix items and mixes
their value vectors into a context vector: roughly, what the prefix is
still missing to complete the pattern.

``unit_forward`` evaluates every causal prefix of a sequence in one pass.
It takes one ``(N, d)`` sequence or a ``(B, N, d)`` batch padded at the
end to its longest sequence. Padded steps come after every valid step, so
the causal masks already keep them out of every valid row; their own rows
hold finite values that callers ignore. It also takes a list of
equal-shaped heads sharing one codebook in place of one unit's
parameters: their weights are stacked on a leading heads axis, and every
output gains that axis in front, one graph for all heads whose per-head
values are those of each head run alone. Random numbers (attention-dropout
masks, Gumbel uniforms) are not drawn here: the caller draws them basket
by basket and passes them in, so a batch sees the same draws as its
baskets run one at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor

GREEDY = "greedy"
WEIGHTED_AVERAGE = "weighted_average"
SAMPLING = "sampling"
_KINDS = (GREEDY, WEIGHTED_AVERAGE, SAMPLING)

__all__ = [
    "ExtractionStrategy",
    "VqaParams",
    "UnitState",
    "causal_mask",
    "init_vqa_params",
    "pattern_attention",
    "prefix_mean_matrix",
    "project_items",
    "unit_forward",
]


@dataclass
class ExtractionStrategy:
    """How a pattern vector is pulled out of the belief distribution.

    greedy takes the argmax codebook row (ties to the lowest index),
    weighted_average takes the belief-weighted mix of all rows, and
    sampling draws a row by Gumbel-max over the log belief at the given
    temperature (temperature 1 is exact categorical sampling).
    """

    kind: str = WEIGHTED_AVERAGE
    gumbel_temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown extraction kind {self.kind!r}")
        if self.gumbel_temperature <= 0:
            raise ValueError("gumbel_temperature must be positive")


@dataclass
class VqaParams:
    """Parameter group of one unit.

    w_query/w_key/w_value project item vectors; w_pattern_key projects
    codebook rows to the key space matched against item queries;
    w_context_query projects an extracted pattern to the query used to
    highlight prefix items. codebook is the trainable table of
    combination-pattern vectors, one row per pattern; stacked heads hold
    one shared codebook tensor.
    """

    w_query: Tensor
    w_key: Tensor
    w_value: Tensor
    w_pattern_key: Tensor
    w_context_query: Tensor
    codebook: Tensor

    def __post_init__(self):
        d_q = self.w_query.shape[0]
        if self.w_pattern_key.shape[0] != d_q:
            raise ValueError(
                f"query dim {d_q} != pattern-key dim {self.w_pattern_key.shape[0]}")
        if self.w_context_query.shape[0] != self.w_key.shape[0]:
            raise ValueError(
                f"context-query dim {self.w_context_query.shape[0]} != key dim {self.w_key.shape[0]}")
        p = self.codebook.shape[1]
        if self.w_pattern_key.shape[1] != p or self.w_context_query.shape[1] != p:
            raise ValueError("pattern projections do not match codebook width")

    def named(self, prefix: str):
        """(name, tensor) per field, in declaration order."""
        for f in fields(self):
            yield f"{prefix}.{f.name}", getattr(self, f.name)


@dataclass
class UnitState:
    """Everything a unit produced for one sequence, one row per step.

    For a padded batch every field gains the leading batch axis, and for
    stacked heads a heads axis before it; ``head(h)`` is head h's state.
    contexts[t] is the context of the prefix up to and including step t,
    prefix_attention[t] the pattern belief of that prefix, and
    context_attention[t, :t+1] the in-prefix item weights.
    pattern_index/pattern_logprob are set only for index-based extraction
    (greedy records indices; sampling also records log belief values).
    """

    contexts: Tensor
    prefix_attention: Tensor
    context_attention: Tensor
    pattern_index: np.ndarray | None = None
    pattern_logprob: Tensor | None = None

    def head(self, h: int) -> "UnitState":
        """Head h of a stacked heads' state, as that head alone gives it."""
        def pick(t):
            return None if t is None else T.gather_rows(t, h)
        return UnitState(pick(self.contexts), pick(self.prefix_attention),
                         pick(self.context_attention),
                         None if self.pattern_index is None else self.pattern_index[h],
                         pick(self.pattern_logprob))


def init_vqa_params(rng: np.random.Generator, input_dim: int, attn_dim: int,
                    value_dim: int, num_patterns: int) -> VqaParams:
    """Fresh unit parameters; projections use std 1/sqrt(fan_in), and
    codebook rows have the attention width."""

    def proj(rows, cols):
        return Tensor(rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols)),
                      requires_grad=True)

    codebook = proj(num_patterns, attn_dim)  # drawn before the projections
    return VqaParams(
        w_query=proj(attn_dim, input_dim),
        w_key=proj(attn_dim, input_dim),
        w_value=proj(value_dim, input_dim),
        w_pattern_key=proj(attn_dim, attn_dim),
        w_context_query=proj(attn_dim, attn_dim),
        codebook=codebook,
    )


def _weight(params, name: str, batch: int) -> Tensor:
    """A projection of one unit, or the heads' projections stacked heads-first.

    A stack gets ``batch`` unit axes after the heads axis, so it broadcasts
    against operands with that many batch axes; every head's weight still
    receives its own gradient.
    """
    if isinstance(params, VqaParams):
        return getattr(params, name)
    w = T.stack([getattr(p, name) for p in params])
    return T.reshape(w, w.shape[:1] + (1,) * batch + w.shape[1:]) if batch else w


def _codebook(params) -> Tensor:
    if isinstance(params, VqaParams):
        return params.codebook
    if any(p.codebook is not params[0].codebook for p in params):
        raise ValueError("stacked heads must share one codebook")
    return params[0].codebook


def project_items(item_vectors, params):
    """Per-item query, key, and value rows: X W_q^T, X W_k^T, X W_v^T.

    X is an ``(N, d)`` item matrix or a ``(B, N, d)`` batch of them; params
    is one unit's VqaParams or a list of heads, whose rows come out
    heads-first.
    """
    x = item_vectors if isinstance(item_vectors, Tensor) else Tensor(item_vectors)
    if x.data.ndim not in (2, 3) or x.shape[-2] == 0:
        raise T.ShapeError(f"project_items: expected non-empty item matrix, got {x.data.shape}")
    batch = x.data.ndim - 2
    return tuple(T.matmul(x, T.transpose(_weight(params, name, batch)))
                 for name in ("w_query", "w_key", "w_value"))


def pattern_attention(q, params, keep_mask=None) -> Tensor:
    """Distribution over codebook entries for every item row of q (any
    leading axes; heads-first when params is a list of heads).

    keep_mask, when given, drops codebook entries out of each row's
    softmax (the renormalizing form of attention dropout), so the output
    rows remain proper distributions.
    """
    codebook = _codebook(params)
    if codebook.shape[0] == 0:
        raise T.ShapeError("pattern_attention: empty codebook")
    # Heads' q is (H, ..., N, d): its batch axes are all but the first and last two.
    w = _weight(params, "w_pattern_key", q.data.ndim - 3)
    keys = T.matmul(codebook, T.transpose(w))
    d = q.shape[-1]
    logits = T.scale(T.matmul(q, T.transpose(keys)), 1.0 / np.sqrt(d))
    return T.softmax(logits, mask=keep_mask)


@functools.lru_cache(maxsize=256)
def prefix_mean_matrix(n: int) -> np.ndarray:
    """Lower-triangular matrix whose row t averages rows 0..t (read-only)."""
    m = np.tril(np.ones((n, n))) / np.arange(1, n + 1)[:, None]
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=256)
def causal_mask(n: int) -> np.ndarray:
    """Boolean lower-triangular mask: step t sees steps 0..t (read-only)."""
    m = np.tril(np.ones((n, n), dtype=bool))
    m.flags.writeable = False
    return m


def unit_forward(inputs: Tensor, params, strategy: ExtractionStrategy,
                 keep_mask: np.ndarray | None = None,
                 uniforms: np.ndarray | None = None) -> UnitState:
    """Evaluate the unit on every causal prefix of a sequence at once.

    inputs is ``(N, d)`` or a padded ``(B, N, d)`` batch. params is one
    unit's VqaParams, or a list of equal-shaped heads sharing one codebook,
    which run as one stacked unit: every output then has a leading heads
    axis, and head h's slice equals what head h alone gives. Row t of
    every output concerns the prefix of steps 0..t. The prefix pattern
    belief is the running mean of the per-item distributions; the context
    attention row t is masked to items <= t.

    keep_mask, shaped like the pattern beliefs, ``([H,] ..., N,
    num_patterns)``, is the attention dropout of training: False drops a
    codebook entry out of that item's softmax, and the rows renormalize so
    beliefs stay distributions. uniforms, of the same shape, are the draws
    in (0, 1) that sampling extraction turns into Gumbel noise; sampling
    needs them.
    """
    n = inputs.shape[-2]
    batch = len(inputs.shape) - 2
    q, k, v = project_items(inputs, params)
    a = pattern_attention(q, params, keep_mask=keep_mask)
    abar = T.matmul(Tensor(prefix_mean_matrix(n)), a)
    codebook = _codebook(params)

    idx = None
    logprob = None
    if strategy.kind == WEIGHTED_AVERAGE:
        z = T.matmul(abar, codebook)
    else:
        if strategy.kind == GREEDY:
            idx = np.argmax(abar.data, axis=-1)
        else:
            if uniforms is None:
                raise ValueError("sampling extraction needs Gumbel uniforms")
            with np.errstate(divide="ignore"):
                logp = np.log(abar.data)
            g = -np.log(-np.log(uniforms))
            idx = np.argmax(logp / strategy.gumbel_temperature + g, axis=-1)
            logprob = T.log(T.take_per_row(abar, idx))
        z = T.gather_rows(codebook, idx)

    rho = T.matmul(z, T.transpose(_weight(params, "w_context_query", batch)))
    d = rho.shape[-1]
    logits = T.scale(T.matmul(rho, T.transpose(k)), 1.0 / np.sqrt(d))
    b = T.softmax(logits, mask=causal_mask(n))
    contexts = T.matmul(b, v)
    return UnitState(contexts=contexts, prefix_attention=abar,
                     context_attention=b, pattern_index=idx, pattern_logprob=logprob)
