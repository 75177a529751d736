"""Training objectives and the training loop.

The autoregressive objective scores each item of a sequence given the
context of its predecessors; one forward pass with causal masks yields
every step of every sequence in a batch at once. The batch is padded at
the end to its longest sequence and run as one autodiff graph; only the
rows of real predicted steps reach the output head, the cross-entropy
and the max-pool, and the random draws are made sequence by sequence, so
a batch's loss is the step-weighted mean of its sequences' losses run
one at a time with the same generator. The per-step, per-context score is

    log p(item | context) + log p(context | prefix)

where the second term is exactly zero for deterministic extraction and
the log belief of the sampled codebook row for Gumbel-sampled contexts.
The single-context loss averages that score over steps; the multi-context
loss max-pools it over the sampled contexts first, so with one context
the two losses coincide identically.

Two data modes: temporal keeps the recorded add order and learned
positions; any_order samples fresh random permutations of each basket
every epoch and skips position encoding, so the model converges toward
order-invariant conditionals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import model as npa_model
from . import tensor as T
from .errors import ConfigError
from .optim import AdamW, clip_grad_norm
from .tensor import Tensor

TEMPORAL = "temporal"
ANY_ORDER = "any_order"

__all__ = [
    "ANY_ORDER",
    "LossReport",
    "TEMPORAL",
    "TrainConfig",
    "batch_loss",
    "loss_ar",
    "loss_mc",
    "sample_permutation",
    "sequence_scores",
    "train",
]


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 256
    learning_rate: float = 3e-4
    permutations_per_basket: int = 1
    mode: str = TEMPORAL
    seed: int = 0
    gradient_clip_norm: float | None = None
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.mode not in (TEMPORAL, ANY_ORDER):
            raise ConfigError(f"mode must be temporal or any_order, got {self.mode!r}")
        if self.mode == ANY_ORDER and self.permutations_per_basket < 1:
            raise ConfigError("permutations_per_basket must be >= 1 in any_order mode")
        if self.mode == TEMPORAL and self.permutations_per_basket != 1:
            raise ConfigError("temporal mode forbids permutation sampling")
        if self.gradient_clip_norm is not None and self.gradient_clip_norm <= 0:
            raise ConfigError("gradient_clip_norm must be positive when set")


@dataclass
class LossReport:
    epoch: int
    mean_nll: float
    per_length_nll: dict = field(default_factory=dict)
    seconds: float = 0.0
    num_sequences: int = 0
    num_steps: int = 0


def sample_permutation(basket_items, rng: np.random.Generator):
    """Uniform random order of a basket, or None for undersized baskets.

    Baskets shorter than two items carry no conditional to learn (the
    objective sums from the second step), so they signal a skip.
    """
    items = np.asarray(basket_items)
    if items.size < 2:
        return None
    return items[rng.permutation(items.size)]


def sequence_scores(batch, config, params, rng=None, training=False,
                    use_positions=None):
    """Per-step, per-context log scores for a batch of sequences.

    Returns (scores, state). scores has one 1-d tensor per prediction
    context, holding len(seq)-1 entries per sequence, sequence after
    sequence in batch order; entry t of a sequence's run scores item t+1
    given the step-t context. state is the padded forward pass, with
    (B, N, ...) tensors.
    """
    seqs = [np.asarray(seq, dtype=np.int64) for seq in batch]
    if not seqs:
        raise ConfigError("sequence_scores: empty batch")
    for seq in seqs:
        if seq.ndim != 1 or seq.size < 2:
            raise ConfigError("sequence_scores: need at least two items")
    lengths = np.array([seq.size for seq in seqs])
    steps = np.arange(lengths.max())
    ids = np.zeros((len(seqs), steps.size), dtype=np.int64)
    ids[steps < lengths[:, None]] = np.concatenate(seqs)
    state = npa_model.forward(ids, config, params, rng_seed=rng, training=training,
                              use_positions=use_positions, lengths=lengths)
    # (sequence, step) of every predicted step; only these rows are scored.
    rows = np.nonzero(steps < lengths[:, None] - 1)
    targets = ids[rows[0], rows[1] + 1]
    emb_t = T.transpose(npa_model.output_embeddings(params))
    scores = []
    for ctx, logprob in zip(state.contexts, state.pattern_logprobs):
        logits = T.matmul(T.gather_rows(ctx, rows), emb_t)
        score = T.scale(T.cross_entropy_with_logits(logits, targets), -1.0)
        if logprob is not None:
            score = T.add(score, T.gather_rows(logprob, rows))
        scores.append(score)
    return scores, state


def _pooled_scores(batch, config, params, rng, training, use_positions,
                   max_pool: bool) -> Tensor:
    """One score per predicted step; multi-context scores are max-pooled."""
    scores, _ = sequence_scores(batch, config, params, rng=rng, training=training,
                                use_positions=use_positions)
    if len(scores) == 1:
        return scores[0]
    if not max_pool:
        raise ConfigError(
            f"loss_ar expects a single context per step, model yields {len(scores)}")
    table = T.concat([T.reshape(s, (s.shape[0], 1)) for s in scores], axis=1)  # (steps, contexts)
    return T.take_per_row(table, np.argmax(table.data, axis=1))


def loss_ar(batch, config, params, rng=None, training=False,
            use_positions=None) -> Tensor:
    """Mean negative per-step score over a batch, single-context models.

    Applies to any model that yields exactly one context per step (SC
    always, MC when it has a single head).
    """
    scores = _pooled_scores(batch, config, params, rng, training, use_positions,
                            max_pool=False)
    return T.scale(T.mean(scores), -1.0)


def loss_mc(batch, config, params, rng=None, training=False,
            use_positions=None) -> Tensor:
    """Multi-context loss: per step, keep only the best-scoring context."""
    scores = _pooled_scores(batch, config, params, rng, training, use_positions,
                            max_pool=True)
    return T.scale(T.mean(scores), -1.0)


def batch_loss(batch, config, params, rng=None, training=False,
               use_positions=None):
    """Variant dispatch; returns (loss, per-sequence mean NLL floats)."""
    scores = _pooled_scores(batch, config, params, rng, training, use_positions,
                            max_pool=config.variant == npa_model.VARIANT_MC)
    ends = np.cumsum([len(seq) - 1 for seq in batch])[:-1]
    details = [-float(np.mean(part)) for part in np.split(scores.data, ends)]
    return T.scale(T.mean(scores), -1.0), details


def _check_baskets(usable, index, config):
    """Reject, before any training work, a basket the model cannot take.

    index[j] is the position of usable[j] in the caller's basket list.
    """
    flat = np.concatenate(usable)
    if (max(b.size for b in usable) <= config.max_sequence_length
            and flat.min() >= 0 and flat.max() < config.num_items):
        return
    for i, items in zip(index, usable):
        if items.size > config.max_sequence_length:
            raise ConfigError(
                f"train: basket {i}: sequence of {items.size} items exceeds "
                f"max_sequence_length {config.max_sequence_length}")
        bad = items[(items < 0) | (items >= config.num_items)]
        if bad.size:
            raise ConfigError(
                f"train: basket {i}: item id {bad[0]} out of range [0, {config.num_items})")


def train(baskets, config, params, train_config: TrainConfig, log=None,
          optimizer: AdamW | None = None):
    """Seeded training loop; returns (params, list of LossReport).

    Baskets shorter than two items are dropped; every other basket is
    checked against max_sequence_length and the item-id range before the
    first step, and a failure names its index in ``baskets``. In any_order
    mode each
    basket contributes permutations_per_basket fresh orderings per epoch
    and positions are skipped; temporal mode requires positions. An
    optimizer may be passed in (e.g. to persist its moments afterwards);
    by default a fresh AdamW over the model parameters is built.
    """
    if not baskets:
        raise ConfigError("train: empty dataset")
    if train_config.mode == TEMPORAL and not config.use_positions:
        raise ConfigError("temporal training requires use_positions=true")
    if train_config.mode == ANY_ORDER and config.use_positions:
        raise ConfigError("any_order training requires use_positions=false")

    rng = np.random.default_rng(train_config.seed)
    if optimizer is None:
        optimizer = AdamW(npa_model.trainable_parameters(params, config),
                          lr=train_config.learning_rate,
                          weight_decay=train_config.weight_decay)
    arrays = [np.asarray(b.items if hasattr(b, "items") else b, dtype=np.int64)
              for b in baskets]
    index = [i for i, b in enumerate(arrays) if b.size >= 2]
    usable = [arrays[i] for i in index]
    if not usable:
        raise ConfigError("train: every basket is shorter than two items")
    _check_baskets(usable, index, config)

    reports = []
    for epoch in range(1, train_config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(usable))
        total_nll = 0.0
        total_steps = 0
        total_seqs = 0
        by_length = {}
        for start in range(0, len(order), train_config.batch_size):
            chunk = order[start:start + train_config.batch_size]
            batch = []
            for bi in chunk:
                items = usable[bi]
                if train_config.mode == ANY_ORDER:
                    for _ in range(train_config.permutations_per_basket):
                        batch.append(sample_permutation(items, rng))
                else:
                    batch.append(items)
            loss, details = batch_loss(batch, config, params, rng=rng,
                                       training=True,
                                       use_positions=config.use_positions)
            if not np.isfinite(loss.data):
                raise FloatingPointError(
                    f"non-finite loss in epoch {epoch}, batch starting at {start}")
            T.backward(loss)
            if train_config.gradient_clip_norm is not None:
                clip_grad_norm(optimizer.params, train_config.gradient_clip_norm)
            optimizer.step()
            optimizer.zero_grad()

            for s, nll in zip(batch, details):
                steps = len(s) - 1
                acc = by_length.setdefault(len(s), [0.0, 0])
                acc[0] += nll * steps
                acc[1] += steps
                total_nll += nll * steps
                total_steps += steps
            total_seqs += len(batch)

        report = LossReport(
            epoch=epoch,
            mean_nll=total_nll / max(total_steps, 1),
            per_length_nll={L: v[0] / v[1] for L, v in sorted(by_length.items())},
            seconds=time.perf_counter() - started,
            num_sequences=total_seqs,
            num_steps=total_steps,
        )
        reports.append(report)
        if log is not None:
            log(report)
    return params, reports
