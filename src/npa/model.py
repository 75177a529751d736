"""Multi-layer, multi-channel composition of vector-quantized attention.

A model stacks layers of parallel units over the causal prefixes of a
basket. Within a layer, every channel runs an independent unit; their
context rows are concatenated and linearly merged back to the embedding
width. Layer l+1 consumes the sum of the raw outputs of layers l and
l-1 (with layer 0 being the embedded items), which is the residual path
that stabilizes training. Non-last layers always extract patterns by
weighted average so they act as information filters.

Two variants differ only in the last layer. The squashed-context (SC)
variant merges its last-layer channels like any other layer and emits
one context per step. The multi-context (MC) variant gives every
last-layer channel the full embedding width, shares a single codebook
across those channels, samples a pattern per channel by Gumbel-max, and
emits one context per channel per step, with the log belief of each
sampled pattern retained for the training objective.

A forward pass takes one basket, giving ``(steps, d)`` tensors, or a batch
of baskets padded at the end to the longest one, giving ``(B, N, d)``
tensors built as one autodiff graph. Padded input rows are zeroed by a
select, so no table row outside the batch reaches a valid row, and the
causal masks keep padded steps out of every valid step. Every random
number is drawn basket by basket in a fixed order (see ``draw_noise``), so
a basket's draws do not depend on the batch it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.gumbel_temperature <= 0:
            raise ConfigError("gumbel_temperature must be positive")
        if self.max_sequence_length < 1:
            raise ConfigError("max_sequence_length must be >= 1")
        # Channel outputs of merging layers concatenate back to embedding_dim.
        for layer, (channels, merges) in enumerate(layer_channel_plan(self)):
            if merges and self.embedding_dim % channels:
                raise ConfigError(
                    f"embedding_dim {self.embedding_dim} not divisible by {channels} channels in layer {layer}")


def layer_channel_plan(config: ModelConfig):
    """(channel_count, merges) per layer; the MC last layer never merges."""
    plan = []
    for layer in range(config.num_layers):
        last = layer == config.num_layers - 1
        if last and config.variant == VARIANT_MC:
            plan.append((config.mc_last_layer_heads, False))
        else:
            plan.append((config.channels_per_layer[layer], True))
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
    """The random numbers one layer consumes, shaped like its rows.

    keep_masks[c] is channel c's attention-dropout keep mask over codebook
    entries and uniforms[c] its Gumbel uniforms, each (..., N, num_patterns)
    or None when unused; merge_uniforms are the dropout draws of the merged
    output, (..., N, embedding_dim), or None.
    """

    dropout_rate: float
    keep_masks: list
    uniforms: list
    merge_uniforms: np.ndarray | None = None

    def basket(self, b: int) -> "LayerNoise":
        """The draws of batch row b alone, without the batch axis."""
        def row(m):
            return None if m is None else m[b]
        return LayerNoise(self.dropout_rate, [row(m) for m in self.keep_masks],
                          [row(u) for u in self.uniforms], row(self.merge_uniforms))


@dataclass
class ContextState:
    """Per-step outputs of a forward pass over one basket or a padded batch.

    contexts holds one (steps x embedding_dim) tensor per prediction
    context, (B x N x embedding_dim) for a batch: a single entry for SC,
    one per last-layer channel for MC.
    pattern_logprobs aligns with contexts; an entry is the per-step log
    belief of the sampled codebook row, or None when extraction was
    deterministic. unit_states[layer][channel] keeps every unit's
    attention tensors for inspection and export.
    """

    contexts: list
    pattern_logprobs: list
    unit_states: list
    embedded: Tensor | None = None


def init_params(config: ModelConfig, seed: int) -> NpaParams:
    """Fresh parameters; embeddings and codebooks use std 1/sqrt(width)."""
    rng = np.random.default_rng(seed)
    d = config.embedding_dim

    def table(rows, cols, std):
        return Tensor(rng.normal(0.0, std, size=(rows, cols)), requires_grad=True)

    item_emb = table(config.num_items, d, 1.0 / np.sqrt(d))
    out_emb = None if config.tie_output_embeddings else table(config.num_items, d, 1.0 / np.sqrt(d))
    pos_emb = table(config.max_sequence_length, d, 0.02)

    layers = []
    shared_codebook = None
    for channels, merges in layer_channel_plan(config):
        if merges:
            width = d // channels
            units = [vqa.init_vqa_params(rng, d, width, width, config.num_patterns)
                     for _ in range(channels)]
            merge = table(d, d, 1.0 / np.sqrt(d))
        else:
            # MC last layer: full-width channels around one shared codebook.
            units = [vqa.init_vqa_params(rng, d, d, d, config.num_patterns)
                     for _ in range(channels)]
            shared_codebook = units[0].codebook
            for u in units[1:]:
                u.codebook = shared_codebook
            merge = None
        layers.append(LayerParams(channels=units, merge=merge))
    return NpaParams(item_embeddings=item_emb, output_embeddings=out_emb,
                     positional_embeddings=pos_emb, layers=layers)


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
    """named_parameters minus tensors the config keeps out of the graph."""
    named = named_parameters(params)
    if config.use_positions:
        return named
    return [(n, t) for n, t in named if n != "positional_embeddings"]


def output_embeddings(params: NpaParams) -> Tensor:
    return params.output_embeddings if params.output_embeddings is not None else params.item_embeddings


def check_baskets(baskets, names, config: ModelConfig, caller: str):
    """Reject, before any model work, a basket the model cannot take.

    baskets are id sequences and names[j] identifies baskets[j] in the
    message. Raises ConfigError for the first basket longer than
    max_sequence_length or holding an id outside [0, num_items).
    """
    baskets = [np.asarray(b, dtype=np.int64) for b in baskets]
    flat = np.concatenate(baskets)
    if (max(b.size for b in baskets) <= config.max_sequence_length
            and flat.min() >= 0 and flat.max() < config.num_items):
        return
    for name, items in zip(names, baskets):
        if items.size > config.max_sequence_length:
            raise ConfigError(
                f"{caller}: basket {name}: sequence of {items.size} items exceeds "
                f"max_sequence_length {config.max_sequence_length}")
        bad = items[(items < 0) | (items >= config.num_items)]
        if bad.size:
            raise ConfigError(f"{caller}: basket {name}: item id {bad[0]} out of range "
                              f"[0, {config.num_items})")


def embed_inputs(item_ids, config: ModelConfig, params: NpaParams,
                 use_positions: bool | None = None, lengths=None) -> Tensor:
    """Item embedding rows, plus the learned position row when enabled.

    item_ids is a 1-d id sequence or a (B, N) array padded at the end, with
    lengths[b] the valid steps of row b (default: all N). Padded rows are
    zeroed with a select, so a non-finite table row they gather never
    spreads; their ids are ignored.
    """
    ids = np.asarray(item_ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.size == 0:
        raise ConfigError(f"embed_inputs: expected a non-empty id sequence, got shape {ids.shape}")
    n = ids.shape[-1]
    if n > config.max_sequence_length:
        raise ConfigError(
            f"sequence of {n} items exceeds max_sequence_length {config.max_sequence_length}")
    pad = None
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.int64)
        if ids.ndim != 2 or lengths.shape != ids.shape[:1] or lengths.min() < 1 or lengths.max() > n:
            raise ConfigError(f"embed_inputs: lengths {lengths.tolist()} do not fit ids {ids.shape}")
        pad = np.arange(n) >= lengths[:, None]
        if pad.any():
            ids = np.where(pad, 0, ids)
        else:
            pad = None
    if ids.min() < 0 or ids.max() >= config.num_items:
        bad = ids[(ids < 0) | (ids >= config.num_items)][0]
        raise ConfigError(f"item id {bad} out of range [0, {config.num_items})")
    x = T.gather_rows(params.item_embeddings, ids)
    if config.use_positions if use_positions is None else use_positions:
        p = T.gather_rows(params.positional_embeddings, np.arange(n))
        x = T.add(x, p)
    if pad is not None:
        x = T.masked_fill(x, np.broadcast_to(pad[..., None], x.shape), 0.0)
    return x


def draw_noise(lengths, config: ModelConfig, rng: np.random.Generator,
               dropout_rate: float) -> list:
    """Every random number of one forward pass, one LayerNoise per layer.

    Baskets draw in batch order. Within a basket, layer by layer, each
    channel draws its attention-dropout keep mask (when dropout_rate > 0)
    and then its Gumbel uniforms (MC last layer); the layer's merge-dropout
    mask comes last. That is the order of running the baskets one at a
    time, so a basket's draws do not depend on its batch. The arrays are
    (B, N, width) with N = max(lengths); padded rows keep every entry.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    shape = (lengths.size, int(lengths.max()))
    p, d = config.num_patterns, config.embedding_dim
    layers = []
    order = []  # the arrays in per-basket draw order
    for li, (channels, merges) in enumerate(layer_channel_plan(config)):
        sampling = li == config.num_layers - 1 and config.variant == VARIANT_MC
        noise = LayerNoise(dropout_rate, keep_masks=[None] * channels,
                           uniforms=[None] * channels)
        for c in range(channels):
            if dropout_rate > 0:
                noise.keep_masks[c] = np.ones(shape + (p,))
                order.append(noise.keep_masks[c])
            if sampling:
                noise.uniforms[c] = np.full(shape + (p,), 0.5)
                order.append(noise.uniforms[c])
        if merges and dropout_rate > 0:
            noise.merge_uniforms = np.ones(shape + (d,))
            order.append(noise.merge_uniforms)
        layers.append(noise)
    for b, n in enumerate(lengths):
        for draws in order:
            rng.random(out=draws[b, :n])
    for noise in layers:
        for c, draws in enumerate(noise.keep_masks):
            if draws is not None:
                keep = draws >= dropout_rate
                keep[~keep.any(axis=-1)] = True  # never empty a row
                noise.keep_masks[c] = keep
    return layers


def forward_layer(inputs: Tensor, layer: LayerParams, strategy: vqa.ExtractionStrategy,
                  noise: LayerNoise | None = None):
    """Run every channel of one merging layer and project the concatenation.

    Returns the merged (..., steps, embedding_dim) output and the
    per-channel unit states. noise, when given, holds the layer's dropout
    masks and Gumbel uniforms. Only meaningful for layers that merge; MC
    last-layer channels are run individually by forward().
    """
    if noise is None:
        noise = LayerNoise(0.0, [None] * len(layer.channels), [None] * len(layer.channels))
    states = [vqa.unit_forward(inputs, unit, strategy, noise.keep_masks[c], noise.uniforms[c])
              for c, unit in enumerate(layer.channels)]
    stacked = states[0].contexts if len(states) == 1 else T.concat([s.contexts for s in states], axis=-1)
    merged = T.matmul(stacked, T.transpose(layer.merge))
    if noise.merge_uniforms is not None:
        merged = T.dropout(merged, noise.dropout_rate, noise.merge_uniforms)
    return merged, states


def forward(basket, config: ModelConfig, params: NpaParams, rng_seed=None,
            training: bool = False, use_positions: bool | None = None,
            lengths=None) -> ContextState:
    """Contexts for every causal prefix of a basket, or of a padded batch.

    basket is a 1-d id sequence, or a (B, N) id array padded at the end
    with lengths[b] the valid steps of row b (default: all N); the outputs
    then carry the leading batch axis, and rows past a basket's length are
    padding to ignore. rng_seed may be an int, a numpy Generator, or None
    for the fixed seed 0; it drives MC pattern sampling and (in training)
    dropout masks. Deterministic given the seed, the inputs, and the
    parameters.
    """
    ids = np.asarray(basket, dtype=np.int64)
    if ids.size < 1:
        raise ConfigError("forward: basket must contain at least one item")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(
        0 if rng_seed is None else rng_seed)
    dropout_rate = config.dropout_rate if training else 0.0

    x = embed_inputs(ids, config, params, use_positions=use_positions, lengths=lengths)
    batched = ids.ndim == 2
    if lengths is None:
        lengths = np.full(ids.shape[0] if batched else 1, ids.shape[-1])
    noise = draw_noise(lengths, config, rng, dropout_rate)
    if not batched:
        noise = [layer_noise.basket(0) for layer_noise in noise]
    prev_raw = x  # raw output of layer l-1; layer 0 is the embedding
    current_input = x
    unit_states = []
    plan = layer_channel_plan(config)

    for li, (channels, merges) in enumerate(plan):
        last = li == config.num_layers - 1
        if not last:
            strategy = vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE)
        elif config.variant == VARIANT_SC:
            strategy = vqa.ExtractionStrategy(config.sc_last_extraction,
                                              config.gumbel_temperature)
        else:
            strategy = vqa.ExtractionStrategy(vqa.SAMPLING, config.gumbel_temperature)

        layer = params.layers[li]
        if merges:
            merged, states = forward_layer(current_input, layer, strategy, noise[li])
            unit_states.append(states)
            if not last:
                # Residual feed: the next layer consumes C(l) + C(l-1).
                current_input = T.add(merged, prev_raw)
                prev_raw = merged
            else:
                contexts = [merged]
                logprobs = [None]
        else:
            states = [vqa.unit_forward(current_input, unit, strategy,
                                       noise[li].keep_masks[c], noise[li].uniforms[c])
                      for c, unit in enumerate(layer.channels)]
            unit_states.append(states)
            contexts = [s.contexts for s in states]
            logprobs = [s.pattern_logprob for s in states]

    return ContextState(contexts=contexts, pattern_logprobs=logprobs,
                        unit_states=unit_states, embedded=x)

