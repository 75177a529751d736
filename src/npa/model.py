"""Multi-layer, multi-channel composition of vector-quantized attention.

A model stacks layers of parallel units over the causal prefixes of a
basket. Within a layer, every channel runs an independent unit; their
context rows are concatenated and linearly merged back to the embedding
width. Layer l+1 consumes the sum of the raw outputs of layers l and
l-1 (with layer 0 being the embedded items), which is the residual path
that stabilizes training. Non-last layers always extract patterns by
weighted average so they act as information filters.

Two variants differ only in the last layer. The squashed-context (SC)
variant merges its last-layer channels like any other layer, extracting
by ``sc_last_extraction``, and emits one context per step. The
multi-context (MC) variant gives every last-layer channel (head) the full
embedding width, shares a single codebook across those heads, samples a
pattern per head by Gumbel-max, and emits one context per head per step,
with the log belief of each sampled pattern retained for the training
objective. The heads run as one stacked unit. ``layer_channel_plan`` is
the one place that decides each layer's role, and both variants give
their contexts heads-first, SC's with a contexts axis of 1.

Outside a recorded graph (``tensor.no_grad``) the embedding gather, the
channel merge and the residual sums run on plain arrays, by the same
numpy operations as the recorded primitives, so every value is
bit-identical to a recording pass.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from . import vqa
from .errors import ConfigError
from .tensor import Tensor

VARIANT_SC = "SC"
VARIANT_MC = "MC"

__all__ = [
    "ContextState",
    "LayerNoise",
    "LayerParams",
    "ModelConfig",
    "NpaParams",
    "VARIANT_MC",
    "VARIANT_SC",
    "check_baskets",
    "draw_noise",
    "embed_inputs",
    "forward",
    "forward_layer",
    "init_params",
    "layer_channel_plan",
    "named_parameters",
    "parameter_shapes",
    "params_from_tensors",
]


@dataclass
class ModelConfig:
    num_items: int
    embedding_dim: int
    num_layers: int
    channels_per_layer: list
    num_patterns: int = 64
    variant: str = VARIANT_SC
    mc_last_layer_heads: int = 5
    dropout_rate: float = 0.0
    max_sequence_length: int = 64
    tie_output_embeddings: bool = False
    use_positions: bool = True
    sc_last_extraction: str = vqa.WEIGHTED_AVERAGE
    gumbel_temperature: float = 1.0

    def __post_init__(self):
        if self.num_items < 1:
            raise ConfigError("num_items must be >= 1")
        if self.num_layers < 1:
            raise ConfigError("num_layers must be >= 1")
        self.channels_per_layer = [int(c) for c in self.channels_per_layer]
        if len(self.channels_per_layer) != self.num_layers:
            raise ConfigError(
                f"channels_per_layer has {len(self.channels_per_layer)} entries for {self.num_layers} layers")
        if any(c < 1 for c in self.channels_per_layer):
            raise ConfigError("every channel count must be >= 1")
        if self.variant not in (VARIANT_SC, VARIANT_MC):
            raise ConfigError(f"variant must be SC or MC, got {self.variant!r}")
        if self.variant == VARIANT_MC and self.mc_last_layer_heads < 1:
            raise ConfigError("mc_last_layer_heads must be >= 1")
        if self.sc_last_extraction not in (vqa.WEIGHTED_AVERAGE, vqa.GREEDY):
            raise ConfigError("sc_last_extraction must be weighted_average or greedy")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")
        # Written as "not > 0" so that NaN fails too.
        if not self.gumbel_temperature > 0:
            raise ConfigError("gumbel_temperature must be positive")
        if self.gumbel_temperature == float("inf"):
            raise ConfigError("gumbel_temperature must be finite")
        if self.max_sequence_length < 1:
            raise ConfigError("max_sequence_length must be >= 1")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")
        if self.num_patterns < 1:
            raise ConfigError("num_patterns must be >= 1")
        # Channel outputs of merging layers concatenate back to embedding_dim.
        for layer, (channels, merges, _) in enumerate(layer_channel_plan(self)):
            if merges and self.embedding_dim % channels:
                raise ConfigError(
                    f"embedding_dim {self.embedding_dim} not divisible by {channels} channels in layer {layer}")


def layer_channel_plan(config: ModelConfig):
    """(channel_count, merges, extraction_kind) per layer. Layers before the
    last merge and extract by weighted average; the SC last layer merges
    and extracts by sc_last_extraction, and the MC heads sample and never
    merge."""
    plan = [(c, True, vqa.WEIGHTED_AVERAGE) for c in config.channels_per_layer[:-1]]
    if config.variant == VARIANT_MC:
        plan.append((config.mc_last_layer_heads, False, vqa.SAMPLING))
    else:
        plan.append((config.channels_per_layer[-1], True, config.sc_last_extraction))
    return plan


@dataclass
class LayerParams:
    channels: list
    merge: Tensor | None  # None for the MC last layer


@dataclass
class NpaParams:
    item_embeddings: Tensor
    output_embeddings: Tensor | None  # None when tied to item_embeddings
    positional_embeddings: Tensor
    layers: list


@dataclass
class LayerNoise:
    """The random numbers one layer consumes, each None when unused:
    keep_masks, the attention-dropout keep masks over codebook entries, and
    uniforms, the Gumbel uniforms of sampling layers, each (channels, ...,
    N, num_patterns); merge_uniforms, the dropout draws of the merged
    output, (..., N, embedding_dim)."""

    dropout_rate: float
    keep_masks: np.ndarray | None = None
    uniforms: np.ndarray | None = None
    merge_uniforms: np.ndarray | None = None

    def rows(self, index) -> "LayerNoise":
        """The draws of batch rows index, in that order; an int index gives
        that row alone, without the batch axis."""
        def cut(m):
            return None if m is None else m[:, index]
        return LayerNoise(self.dropout_rate, cut(self.keep_masks), cut(self.uniforms),
                          None if self.merge_uniforms is None else self.merge_uniforms[index])


@dataclass
class ContextState:
    """Per-step outputs of a forward pass over one basket or a padded batch.

    context holds the prediction contexts heads-first, (contexts, [B,]
    steps, embedding_dim): SC has one, the last layer's merged output, and
    MC one per last-layer head. logprob holds their (contexts, [B,] steps)
    sampled patterns' log beliefs, or None for SC. layer_states[layer] is
    the per-channel list of that layer's ``vqa.UnitState``, or for the MC
    heads the one stacked state. The views contexts[h] and
    unit_states[layer][channel] are built on first access.
    """

    context: Tensor
    logprob: Tensor | None
    layer_states: list

    def values(self):
        """(context, logprob) as arrays, logprob None for SC."""
        return self.context.data, None if self.logprob is None else self.logprob.data

    @functools.cached_property
    def unit_states(self) -> list:
        return [s if isinstance(s, list) else [s.head(h) for h in range(s.contexts.shape[0])]
                for s in self.layer_states]

    @functools.cached_property
    def contexts(self) -> list:
        return [T.gather_rows(self.context, h) for h in range(self.context.shape[0])]


def init_params(config: ModelConfig, seed: int) -> NpaParams:
    """Fresh parameters; embeddings and codebooks use std 1/sqrt(width).
    Every MC head draws a codebook, and all of them then share head 0's."""
    rng = np.random.default_rng(seed)
    d = config.embedding_dim

    def table(rows, cols, std):
        return Tensor(rng.normal(0.0, std, size=(rows, cols)), requires_grad=True)

    tensors = {"item_embeddings": table(config.num_items, d, 1.0 / np.sqrt(d))}
    if not config.tie_output_embeddings:
        tensors["output_embeddings"] = table(config.num_items, d, 1.0 / np.sqrt(d))
    tensors["positional_embeddings"] = table(config.max_sequence_length, d, 0.02)
    for li, (channels, merges, _) in enumerate(layer_channel_plan(config)):
        width = d // channels if merges else d
        for ci in range(channels):
            unit = vqa.init_vqa_params(rng, d, width, config.num_patterns)
            tensors.update(unit.named(f"layers.{li}.channels.{ci}"))
        if merges:
            tensors[f"layers.{li}.merge"] = table(d, d, 1.0 / np.sqrt(d))
    return params_from_tensors(config, tensors)


_UNIT_TENSORS = [f.name for f in fields(vqa.VqaParams)]


def parameter_shapes(config: ModelConfig):
    """(name, shape) of every parameter, in named_parameters order."""
    d = config.embedding_dim
    shapes = [("item_embeddings", (config.num_items, d))]
    if not config.tie_output_embeddings:
        shapes.append(("output_embeddings", (config.num_items, d)))
    shapes.append(("positional_embeddings", (config.max_sequence_length, d)))
    for li, (channels, merges, _) in enumerate(layer_channel_plan(config)):
        width = d // channels if merges else d
        unit = list(zip(_UNIT_TENSORS, [(width, d)] * 3 + [(width, width)] * 2
                        + [(config.num_patterns, width)]))
        for ci in range(channels):
            # The MC last layer's heads share channel 0's codebook.
            shapes += [(f"layers.{li}.channels.{ci}.{name}", shape) for name, shape in unit
                       if name != "codebook" or merges or ci == 0]
        if merges:
            shapes.append((f"layers.{li}.merge", (d, d)))
    return shapes


def params_from_tensors(config: ModelConfig, tensors) -> NpaParams:
    """Parameters made of the given tensors, keyed by parameter_shapes names;
    every head of the MC last layer holds channel 0's codebook."""
    layers = []
    for li, (channels, merges, _) in enumerate(layer_channel_plan(config)):
        units = []
        for ci in range(channels):
            unit = {name: tensors.get(f"layers.{li}.channels.{ci}.{name}")
                    for name in _UNIT_TENSORS}
            if units and not merges:
                unit["codebook"] = units[0].codebook
            units.append(vqa.VqaParams(**unit))
        layers.append(LayerParams(channels=units,
                                  merge=tensors[f"layers.{li}.merge"] if merges else None))
    return NpaParams(item_embeddings=tensors["item_embeddings"],
                     output_embeddings=tensors.get("output_embeddings"),
                     positional_embeddings=tensors["positional_embeddings"], layers=layers)


def named_parameters(params: NpaParams):
    """(name, tensor) pairs in a stable order; shared codebooks appear once."""
    out = [("item_embeddings", params.item_embeddings)]
    if params.output_embeddings is not None:
        out.append(("output_embeddings", params.output_embeddings))
    out.append(("positional_embeddings", params.positional_embeddings))
    seen = {id(t) for _, t in out}
    for li, layer in enumerate(params.layers):
        for ci, unit in enumerate(layer.channels):
            for name, t in unit.named(f"layers.{li}.channels.{ci}"):
                if id(t) in seen:
                    continue
                seen.add(id(t))
                out.append((name, t))
        if layer.merge is not None:
            out.append((f"layers.{li}.merge", layer.merge))
    return out


def trainable_parameters(params: NpaParams, config: ModelConfig):
    """named_parameters minus the positional embeddings when use_positions
    is false, and minus w_query and w_pattern_key of every layer that
    extracts greedily: they only feed the pattern argmax, so no gradient
    reaches them."""
    frozen = set() if config.use_positions else {"positional_embeddings"}
    for li, (channels, _, kind) in enumerate(layer_channel_plan(config)):
        if kind == vqa.GREEDY:
            frozen.update(f"layers.{li}.channels.{c}.{name}" for c in range(channels)
                          for name in ("w_query", "w_pattern_key"))
    return [(n, t) for n, t in named_parameters(params) if n not in frozen]


def output_embeddings(params: NpaParams) -> Tensor:
    return params.output_embeddings if params.output_embeddings is not None else params.item_embeddings


def _item_ids(values, caller: str, name=None) -> np.ndarray:
    """values as an int64 id array. A float id that is fractional, not
    finite or out of int64's range raises ConfigError naming the basket
    (name; by default the ids of a 1-d basket, the row of a batch) and the
    id."""
    ids = np.asarray(values)
    if ids.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            bad = np.flatnonzero(ids.astype(np.int64) != ids)
        if bad.size:
            if name is None:
                name = (bad[0] // ids.shape[1] if ids.ndim == 2
                        else ",".join(map(str, ids.ravel().tolist())))
            raise ConfigError(f"{caller}: basket {name}: item id {ids.flat[bad[0]]} "
                              "is not an integer")
    return np.asarray(ids, dtype=np.int64)


def check_baskets(baskets, names, config: ModelConfig, caller: str):
    """Reject, before any model work, a basket the model cannot take.

    baskets are id sequences and names[j] identifies baskets[j] in the
    message. Raises ConfigError when there is no basket, and for the first
    basket that is empty, longer than max_sequence_length, holds an id
    outside [0, num_items), or repeats an id (the first id seen twice is
    named).
    """
    if not len(baskets):
        raise ConfigError(f"{caller}: no baskets")
    for name, basket in zip(names, baskets):
        items = np.asarray(basket, dtype=np.int64).tolist()
        if not items:
            raise ConfigError(f"{caller}: basket {name}: empty")
        if len(items) > config.max_sequence_length:
            raise ConfigError(
                f"{caller}: basket {name}: sequence of {len(items)} items exceeds "
                f"max_sequence_length {config.max_sequence_length}")
        if min(items) < 0 or max(items) >= config.num_items:
            bad = next(i for i in items if not 0 <= i < config.num_items)
            raise ConfigError(f"{caller}: basket {name}: item id {bad} out of range "
                              f"[0, {config.num_items})")
        if len(set(items)) < len(items):
            seen = set()
            for item in items:
                if item in seen:
                    raise ConfigError(f"{caller}: basket {name}: item id {item} repeats")
                seen.add(item)


@dataclass(frozen=True)
class _Checked:
    """A 1-d int64 id array that check_baskets accepted under the config it
    is run with: forward and embed_inputs take it without checking again."""

    ids: np.ndarray


def embed_inputs(item_ids, config: ModelConfig, params: NpaParams, lengths=None) -> Tensor:
    """Item embedding rows, plus the learned position row when
    config.use_positions.

    item_ids is a 1-d id sequence or a (B, N) array padded at the end, with
    lengths[b] the valid steps of row b (default: all N). Padded rows are
    zeroed with a select, so a non-finite table row they gather never
    spreads; their ids are ignored.
    """
    pad = None
    if isinstance(item_ids, _Checked):
        ids = item_ids.ids
        n = ids.size
    else:
        ids = np.asarray(item_ids, dtype=np.int64)
        if ids.ndim not in (1, 2) or ids.size == 0:
            raise ConfigError(
                f"embed_inputs: expected a non-empty id sequence, got shape {ids.shape}")
        n = ids.shape[-1]
        if n > config.max_sequence_length:
            raise ConfigError(
                f"sequence of {n} items exceeds max_sequence_length {config.max_sequence_length}")
        if lengths is not None:
            lengths = np.asarray(lengths, dtype=np.int64)
            if (ids.ndim != 2 or lengths.shape != ids.shape[:1] or lengths.min() < 1
                    or lengths.max() > n):
                raise ConfigError(
                    f"embed_inputs: lengths {lengths.tolist()} do not fit ids {ids.shape}")
            pad = np.arange(n) >= lengths[:, None]
            if pad.any():
                ids = np.where(pad, 0, ids)
            else:
                pad = None
        if ids.min() < 0 or ids.max() >= config.num_items:
            bad = ids[(ids < 0) | (ids >= config.num_items)][0]
            raise ConfigError(f"item id {bad} out of range [0, {config.num_items})")
    if not T._grad_enabled:
        # No graph: the same gathers and sums on plain arrays, the ids checked.
        x = params.item_embeddings.data[ids]
        if config.use_positions:
            x = x + params.positional_embeddings.data[:n]
        return Tensor(x if pad is None else np.where(pad[..., None], 0.0, x))
    x = T.gather_rows(params.item_embeddings, ids)
    if config.use_positions:
        p = T.gather_rows(params.positional_embeddings, np.arange(n))
        x = T.add(x, p)
    if pad is not None:
        x = T.masked_fill(x, np.broadcast_to(pad[..., None], x.shape), 0.0)
    return x


def draw_noise(lengths, config: ModelConfig, rng_seed, dropout_rate: float,
               buckets=None) -> list:
    """Every random number of one forward pass, one LayerNoise per layer.

    rng_seed is a numpy Generator, an int seed, or None for the fixed seed 0.
    Baskets draw in batch order, from one generator call. Within a basket,
    layer by layer, each channel draws its attention-dropout keep mask
    (when dropout_rate > 0) and then its Gumbel uniforms (sampling layers);
    the layer's merge-dropout mask comes last. That is the order of running
    the baskets one at a time, so a basket's draws do not depend on its
    batch. The arrays are channels first, (channels, B, N, width) with
    N = max(lengths), and the keep masks boolean; padded rows keep every
    entry. A batch or bucket of one basket needs no padding: its uniforms
    and merge draws are views of the generator's output.

    buckets, when given, are index arrays that partition the batch; the
    result is then one such list per bucket, over its baskets in the order
    given and padded to its own longest basket, and each basket's draws
    are the same as without buckets.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(
        0 if rng_seed is None else rng_seed)
    lengths = np.asarray(lengths, dtype=np.int64).tolist()
    p, d = config.num_patterns, config.embedding_dim
    dropout = dropout_rate > 0
    # Per layer: its channels, whether they sample, whether its merge drops out.
    plan = [(channels, kind == vqa.SAMPLING, merges and dropout)
            for channels, merges, kind in layer_channel_plan(config)]
    per_step = sum(channels * (dropout + sampling) * p + merge * d
                   for channels, sampling, merge in plan)
    draws = rng.random(sum(lengths) * per_step)
    starts = list(itertools.accumulate(lengths, initial=0))

    def layer_draws(b):
        """Basket b's draws per layer: a (channels, dropout + sampling, n, p)
        block of keep-mask and Gumbel draws, then the merge's (n, d) block."""
        at, n = starts[b] * per_step, lengths[b]
        for channels, sampling, merge in plan:
            size = channels * (dropout + sampling) * n * p
            block = draws[at:at + size].reshape(channels, dropout + sampling, n, p)
            at += size
            yield block, draws[at:at + merge * n * d].reshape(merge * n, d)
            at += merge * n * d

    out = []
    for group in [range(len(lengths))] if buckets is None else buckets:
        group = list(group)
        if len(group) == 1:
            # One basket needs no padding: its uniforms view its draws.
            layers = [LayerNoise(dropout_rate,
                                 block[:, :1] >= dropout_rate if dropout else None,
                                 block[:, -1:] if sampling else None,
                                 merge_block[None] if merge else None)
                      for (block, merge_block), (_, sampling, merge)
                      in zip(layer_draws(group[0]), plan)]
        else:
            shape = (len(group), max(lengths[b] for b in group))
            layers = [LayerNoise(dropout_rate,
                                 np.ones((channels,) + shape + (p,), dtype=bool) if dropout else None,
                                 np.full((channels,) + shape + (p,), 0.5) if sampling else None,
                                 np.ones(shape + (d,)) if merge else None)
                      for channels, sampling, merge in plan]
            for row, b in enumerate(group):
                n = lengths[b]
                for noise, (block, merge_block), (_, sampling, merge) in zip(
                        layers, layer_draws(b), plan):
                    if dropout:
                        np.greater_equal(block[:, 0], dropout_rate,
                                         out=noise.keep_masks[:, row, :n])
                    if sampling:
                        noise.uniforms[:, row, :n] = block[:, -1]
                    if merge:
                        noise.merge_uniforms[row, :n] = merge_block
        for noise in layers:
            if noise.keep_masks is not None:
                noise.keep_masks[~noise.keep_masks.any(axis=-1)] = True  # never empty a row
        out.append(layers)
    return out[0] if buckets is None else out


def forward_layer(inputs: Tensor, layer: LayerParams, strategy: vqa.ExtractionStrategy,
                  noise: LayerNoise):
    """Run every channel of one merging layer and project the concatenation:
    returns the merged (..., steps, embedding_dim) output and the
    per-channel unit states. LayerNoise(0.0) runs the layer without dropout."""
    keep = noise.keep_masks
    states = [vqa.unit_forward(inputs, unit, strategy, None if keep is None else keep[c])
              for c, unit in enumerate(layer.channels)]
    if T._grad_enabled:
        stacked = states[0].contexts if len(states) == 1 else T.concat([s.contexts for s in states])
        merged = T.matmul(stacked, T.transpose(layer.merge))
    else:  # no graph: the same concatenation and product on plain arrays
        stacked = np.concatenate([s.contexts.data for s in states], axis=-1)
        merged = Tensor(stacked @ layer.merge.data.swapaxes(-1, -2))
    if noise.merge_uniforms is not None:
        merged = T.dropout(merged, noise.dropout_rate, noise.merge_uniforms)
    return merged, states


def forward(basket, config: ModelConfig, params: NpaParams, rng_seed=None,
            lengths=None, noise=None) -> ContextState:
    """Contexts for every causal prefix of a basket, or of a padded batch.

    basket is a 1-d id sequence, or a (B, N) id array padded at the end
    with lengths[b] the valid steps of row b (default: all N); the outputs
    then carry the leading batch axis, and rows past a basket's length are
    padding to ignore. rng_seed (an int, a numpy Generator, or None for the
    fixed seed 0) drives MC pattern sampling, and the pass runs without
    dropout. noise, when given, replaces rng_seed: draw_noise's list for
    these rows (each LayerNoise's rows(0) for a 1-d basket), with dropout
    when drawn at a positive rate.
    """
    checked = isinstance(basket, _Checked)
    ids = basket.ids if checked else _item_ids(basket, "forward")
    x = embed_inputs(basket if checked else ids, config, params, lengths=lengths)
    batched = ids.ndim == 2
    if noise is None:
        if lengths is None:
            lengths = np.full(ids.shape[0] if batched else 1, ids.shape[-1])
        noise = draw_noise(lengths, config, rng_seed, 0.0)
        if not batched:
            noise = [layer_noise.rows(0) for layer_noise in noise]
    prev_raw = x  # raw output of layer l-1; layer 0 is the embedding
    current_input = x
    layer_states = []

    for li, (_, merges, kind) in enumerate(layer_channel_plan(config)):
        strategy = vqa.ExtractionStrategy(kind, config.gumbel_temperature)
        layer = params.layers[li]
        if not merges:
            heads = vqa.unit_forward(current_input, layer.channels, strategy,
                                     noise[li].keep_masks, noise[li].uniforms)
            layer_states.append(heads)
            return ContextState(heads.contexts, heads.pattern_logprob, layer_states)
        merged, states = forward_layer(current_input, layer, strategy, noise[li])
        layer_states.append(states)
        if li < config.num_layers - 1:
            # Residual feed: the next layer consumes C(l) + C(l-1).
            current_input = (T.add(merged, prev_raw) if T._grad_enabled
                             else Tensor(merged.data + prev_raw.data))
            prev_raw = merged
    return ContextState(T.reshape(merged, (1,) + merged.shape), None, layer_states)
