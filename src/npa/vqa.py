"""Vector-quantized attention: codebook lookup and context estimation.

A unit holds a table of trainable combination-pattern vectors (the
codebook) and two attention stages. Stage one scores every item of a
basket prefix against the codebook and averages the per-item
distributions into a prefix-level pattern belief. Stage two turns an
extracted pattern vector into a query over the prefix items and mixes
their value vectors into a context vector: roughly, what the prefix is
still missing to complete the pattern.

The unit computes on plain arrays and enters the autodiff graph as one
node for its contexts, plus one for the sampled patterns' log beliefs
when it samples. Their backward passes are written out from the unit's
equations: gradients reach a sampled or greedy pattern only through the
codebook row it picks, and sampling's beliefs only through the log
belief. They repeat, operation for operation, the arithmetic of the same
unit composed one graph node per operation and add into shared tensors
in that composition's order, so values and gradients are bit-identical
to it; that composition is the oracle in ``tests/test_vqa.py``. No
intermediate gradient outlives the backward pass.

Outside a recorded graph the unit builds no backward pass and returns
plain tensors, and the stacked heads' projections and the pattern keys
(codebook rows projected by w_pattern_key) are kept between calls and
reused while the weight arrays are the same objects, which are then
read-only (``tensor._kept``).
"""

from __future__ import annotations

import functools
import math
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
    """How a pattern vector is pulled out of the belief distribution:
    greedy takes the argmax codebook row (ties to the lowest index),
    weighted_average the belief-weighted mix of all rows, and sampling a
    row drawn by Gumbel-max over the log belief at the given temperature
    (temperature 1 is exact categorical sampling)."""

    kind: str = WEIGHTED_AVERAGE
    gumbel_temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown extraction kind {self.kind!r}")
        # Written as "not > 0" so that NaN fails too.
        if not self.gumbel_temperature > 0:
            raise ValueError("gumbel_temperature must be positive")
        if self.gumbel_temperature == float("inf"):
            raise ValueError("gumbel_temperature must be finite")


@dataclass
class VqaParams:
    """Parameter group of one unit: w_query/w_key/w_value project item
    vectors; w_pattern_key projects codebook rows to the key space matched
    against item queries; w_context_query projects an extracted pattern to
    the query used to highlight prefix items. codebook is the trainable
    table of combination-pattern vectors, one row per pattern; stacked
    heads hold one shared codebook tensor."""

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

    contexts[t] is the context of the prefix up to and including step t,
    prefix_attention[t] the pattern belief of that prefix, and
    context_attention[t, :t+1] the in-prefix item weights; only contexts
    and pattern_logprob carry gradients. Greedy extraction sets
    pattern_index, and sampling pattern_index and pattern_logprob. For a
    padded batch every field gains the leading batch axis, and for stacked
    heads a heads axis before it; ``head(h)`` is head h's state.
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
                    num_patterns: int) -> VqaParams:
    """Fresh unit parameters; projections use std 1/sqrt(fan_in). Values,
    queries, keys and codebook rows all have the attention width."""

    def proj(rows, cols):
        return Tensor(rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols)),
                      requires_grad=True)

    codebook = proj(num_patterns, attn_dim)  # drawn before the projections
    return VqaParams(
        w_query=proj(attn_dim, input_dim),
        w_key=proj(attn_dim, input_dim),
        w_value=proj(attn_dim, input_dim),
        w_pattern_key=proj(attn_dim, attn_dim),
        w_context_query=proj(attn_dim, attn_dim),
        codebook=codebook,
    )


def _stacked(params, name: str, batch: int) -> np.ndarray:
    """A projection of one unit, or the heads' projections stacked heads-first
    with ``batch`` unit axes after the heads axis, so that the stack
    broadcasts against operands with that many batch axes."""
    if isinstance(params, VqaParams):
        return getattr(params, name).data
    sources = [getattr(p, name).data for p in params]
    w = T._kept("stack", sources, lambda: np.array(sources))
    return w.reshape(w.shape[:1] + (1,) * batch + w.shape[1:]) if batch else w


def _grad_to_weights(params, name: str, g_t: np.ndarray):
    """Add the gradient of a transposed (stacked) projection into each
    unit's weight: a stack's head h gets slice h."""
    g = g_t.swapaxes(-1, -2)
    if isinstance(params, VqaParams):
        params = [params]
    g = g.reshape((len(params),) + g.shape[-2:])
    for p, part in zip(params, g):
        w = getattr(p, name)
        if w.requires_grad:
            T._accumulate(w, part)


def _add_grad(t: Tensor, g: np.ndarray):
    """Add g, a new array, into t.grad, summed over any heads axes that t
    was broadcast on."""
    if t.requires_grad:
        T._accumulate(t, g if g.shape == t.shape else T._reduce(g, t.shape), fresh=True)


def _codebook(params) -> Tensor:
    if isinstance(params, VqaParams):
        return params.codebook
    codebook = params[0].codebook
    for p in params:
        if p.codebook is not codebook:
            raise ValueError("stacked heads must share one codebook")
    return codebook


def project_items(item_vectors, params):
    """Per-item query, key, and value rows: X W_q^T, X W_k^T, X W_v^T.

    X is an ``(N, d)`` item array or a ``(B, N, d)`` batch of them; params
    is one unit's VqaParams or a list of heads, whose rows come out
    heads-first.
    """
    x = np.asarray(item_vectors, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-2] == 0:
        raise T.ShapeError(f"project_items: expected non-empty item matrix, got {x.shape}")
    batch = x.ndim - 2
    return (x @ _stacked(params, "w_query", batch).swapaxes(-1, -2),
            x @ _stacked(params, "w_key", batch).swapaxes(-1, -2),
            x @ _stacked(params, "w_value", batch).swapaxes(-1, -2))


def pattern_attention(q, params, keep_mask=None) -> np.ndarray:
    """Distribution over codebook entries for every item row of the query
    array q (any leading axes; heads-first when params is a list of heads).
    keep_mask, when given, drops codebook entries out of each row's softmax,
    and the rows renormalize."""
    codebook = _codebook(params).data
    # Heads' q is (H, ..., N, d): its batch axes are all but the first and last two.
    batch = max(q.ndim - 3, 0)
    units = [params] if isinstance(params, VqaParams) else params
    keys = T._kept(("pattern_keys", batch), [codebook] + [u.w_pattern_key.data for u in units],
                   lambda: codebook @ _stacked(params, "w_pattern_key", batch).swapaxes(-1, -2))
    logits = q @ keys.swapaxes(-1, -2)
    logits *= 1.0 / math.sqrt(q.shape[-1])
    return T._softmax_rows(logits, keep_mask)


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

    inputs is ``(N, d)`` or a ``(B, N, d)`` batch padded at the end: the
    causal masks keep padded steps out of every valid row, and the padded
    rows' own outputs are finite values to ignore. params is one unit's
    VqaParams, or a list of equal-shaped heads sharing one codebook, which
    run as one stacked unit: every output then has a leading heads axis,
    and head h's slice equals what head h alone gives. Row t of every
    output concerns the prefix of steps 0..t.

    keep_mask, shaped like the pattern beliefs, ``([H,] ..., N,
    num_patterns)``, is the attention dropout of training: False drops a
    codebook entry out of that item's softmax, and the rows renormalize.
    uniforms, of the same shape, are the draws in (0, 1) that sampling
    extraction turns into Gumbel noise; sampling needs them.
    """
    inputs = T._coerce(inputs)
    x = inputs.data
    q, k, v = project_items(x, params)
    n, batch = x.shape[-2], x.ndim - 2
    a = pattern_attention(q, params, keep_mask)
    mean = prefix_mean_matrix(n)
    abar = mean @ a
    codebook = _codebook(params)
    c = codebook.data

    idx = picked = None
    if strategy.kind == WEIGHTED_AVERAGE:
        z = abar @ c
    else:
        if strategy.kind == GREEDY:
            idx = np.argmax(abar, axis=-1)
        else:
            if uniforms is None:
                raise ValueError("sampling extraction needs Gumbel uniforms")
            with np.errstate(divide="ignore"):
                perturbed = np.log(abar)
            gumbel = np.log(uniforms)  # -log(-log(u)), in place
            np.negative(gumbel, out=gumbel)
            np.log(gumbel, out=gumbel)
            np.negative(gumbel, out=gumbel)
            if strategy.gumbel_temperature != 1.0:
                perturbed /= strategy.gumbel_temperature
            perturbed += gumbel
            idx = np.argmax(perturbed, axis=-1)
            picked = abar.reshape(-1, abar.shape[-1])[np.arange(idx.size), idx.ravel()]
            picked = picked.reshape(idx.shape)
        z = c[idx]
    rho = z @ _stacked(params, "w_context_query", batch).swapaxes(-1, -2)
    context_scale = 1.0 / math.sqrt(rho.shape[-1])
    logits = rho @ k.swapaxes(-1, -2)
    logits *= context_scale
    # Every row keeps its own step, so the causal mask needs no check.
    b = T._softmax_rows(np.where(causal_mask(n), logits, -np.inf))
    contexts = b @ v
    if not T._grad_enabled:
        return UnitState(contexts=Tensor(contexts), prefix_attention=Tensor(abar),
                         context_attention=Tensor(b), pattern_index=idx,
                         pattern_logprob=None if picked is None else Tensor(np.log(picked)))

    pattern_scale = 1.0 / math.sqrt(q.shape[-1])  # as in pattern_attention

    def project_back(name: str, g: np.ndarray):
        """Backward of X W^T: into the inputs, then into each unit's W."""
        w = _stacked(params, name, batch)
        _add_grad(inputs, g @ w)
        _grad_to_weights(params, name, T._right_grad(x, g, w.swapaxes(-1, -2).shape))

    def beliefs_back(g_abar: np.ndarray):
        """From the prefix beliefs down to the codebook, w_pattern_key,
        w_query and the inputs."""
        g_logits = T._softmax_grad(a, mean.swapaxes(-1, -2) @ g_abar)
        g_logits *= pattern_scale
        wpk_t = _stacked(params, "w_pattern_key", batch).swapaxes(-1, -2)
        keys = c @ wpk_t  # recomputed
        g_q = g_logits @ keys
        g_keys = T._right_grad(q, g_logits, keys.swapaxes(-1, -2).shape).swapaxes(-1, -2)
        _add_grad(codebook, g_keys @ wpk_t.swapaxes(-1, -2))
        _grad_to_weights(params, "w_pattern_key", T._right_grad(c, g_keys, wpk_t.shape))
        project_back("w_query", g_q)

    def contexts_back(g: np.ndarray):
        g_v = b.swapaxes(-1, -2) @ g
        g_logits = T._softmax_grad(b, g @ v.swapaxes(-1, -2))
        g_logits *= context_scale
        g_rho = g_logits @ k
        g_k = (rho.swapaxes(-1, -2) @ g_logits).swapaxes(-1, -2)
        wcq = _stacked(params, "w_context_query", batch)
        g_z = g_rho @ wcq
        _grad_to_weights(params, "w_context_query",
                         T._right_grad(z, g_rho, wcq.swapaxes(-1, -2).shape))
        if strategy.kind == WEIGHTED_AVERAGE:
            _add_grad(codebook, T._right_grad(abar, g_z, c.shape))
            beliefs_back(g_z @ c.swapaxes(-1, -2))
        elif codebook.requires_grad:
            T._accumulate(codebook, T._add_rows(c.shape, idx, g_z), fresh=True)
        project_back("w_key", g_k)
        project_back("w_value", g_v)

    def logprob_back(g: np.ndarray):
        g_abar = np.zeros_like(abar)
        np.put_along_axis(g_abar, idx[..., None], (g / picked)[..., None], axis=-1)
        beliefs_back(g_abar)

    def parents(names):
        units = [params] if isinstance(params, VqaParams) else params
        return [inputs, codebook] + [getattr(u, name) for u in units for name in names]

    belief_weights = ("w_query", "w_pattern_key")
    context_weights = ("w_key", "w_value", "w_context_query")
    if strategy.kind == WEIGHTED_AVERAGE:
        context_weights += belief_weights
    out = T._make(contexts, parents(context_weights), contexts_back)
    logprob = None
    if picked is not None:
        logprob = T._make(np.log(picked), parents(belief_weights), logprob_back)
    return UnitState(contexts=out, prefix_attention=Tensor(abar), context_attention=Tensor(b),
                     pattern_index=idx, pattern_logprob=logprob)
