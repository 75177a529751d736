"""Training objectives and the training loop.

The autoregressive objective scores each item of a sequence given the
context of its predecessors. The per-step, per-context score is

    log p(item | context) + log p(context | prefix)

where the second term is exactly zero for deterministic extraction and
the log belief of the sampled codebook row for Gumbel-sampled contexts.
The one objective, batch_loss, max-pools that score over a step's
contexts and averages the result over steps; with a single context (SC,
or MC with one head) the max-pool is the identity and the loss is the
plain autoregressive mean. The max-pool only selects, so only each step's
winning context gets a gradient: the winners are chosen without a graph
(_winners), and the graph runs the output head over their rows alone. The
loss is bit-identical to a graph over every context, and the gradients
agree to rounding.

Two data modes: temporal keeps the recorded add order and learned
positions; any_order samples fresh random permutations of each basket
every epoch and skips position encoding, so the model converges toward
order-invariant conditionals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as npa_model
from . import tensor as T
from .errors import ConfigError
from .optim import AdamW, clip_grad_norm
from .tensor import Tensor

TEMPORAL = "temporal"
ANY_ORDER = "any_order"

# batch_loss cuts a batch in two by length when that removes at least this
# many padded rows (see _length_buckets). The value lies between the best
# cut of the benchmark's two training profiles: at most 126 rows on
# train_sc_anyorder, where a cut slows the step, and at least 240 on
# train_mc_temporal, where it speeds the step up (README, Performance).
# Since 160 > 5 x 22, no batch of 6 baskets or fewer of lengths 2-24 is cut.
SPLIT_PADDED_ROWS = 160

__all__ = [
    "ANY_ORDER",
    "LossReport",
    "TEMPORAL",
    "TrainConfig",
    "batch_loss",
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
        # Written as "not in range" so that NaN fails too.
        if not 0.0 <= self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and >= 0")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError("weight_decay must be finite and >= 0")
        if self.gradient_clip_norm is not None and not self.gradient_clip_norm > 0:
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
    """Uniform random order of a basket, or None, a skip, for a basket of
    fewer than two items, which has no conditional to learn."""
    items = np.asarray(basket_items)
    if items.size < 2:
        return None
    return items[rng.permutation(items.size)]


def _checked_sequences(batch, config):
    """The id arrays of a batch, checked by check_baskets so that a failure
    names the sequence's index in the batch."""
    seqs = [npa_model._item_ids(seq, "batch_loss", i) for i, seq in enumerate(batch)]
    if not seqs:
        raise ConfigError("empty batch")
    for i, seq in enumerate(seqs):
        if seq.ndim != 1 or seq.size < 2:
            raise ConfigError(f"batch sequence {i} has shape {seq.shape}; need two items or more")
    npa_model.check_baskets(seqs, range(len(seqs)), config, "batch_loss")
    return seqs


def _forward_rows(seqs, lengths, noise, config, params):
    """Padded forward pass of sequences on their noise; returns (state, rows, targets).

    rows is the (sequence, step) index pair of every predicted step,
    sequence after sequence, and targets[i] the item that step i predicts.
    """
    steps = np.arange(lengths.max())
    valid = steps < lengths[:, None]
    ids = np.zeros((len(seqs), steps.size), dtype=np.int64)
    ids[valid] = np.concatenate(seqs)
    state = npa_model.forward(ids, config, params, lengths=lengths, noise=noise)
    rows = np.nonzero(steps < lengths[:, None] - 1)
    return state, rows, ids[rows[0], rows[1] + 1]


def _context_scores(contexts, logprobs, rows, targets, emb) -> np.ndarray:
    """(contexts, steps) table of per-step scores, computed without a graph.

    contexts and logprobs are ContextState.values(). Entry [h, i] is
    log p(targets[i] | context h) by the kernel of T.linear_cross_entropy,
    plus the log belief of context h's sampled pattern at rows[i]; so every
    entry equals the score a graph would compute, bit for bit.
    """
    table = np.array([-T._linear_nll(ctx[rows], emb.T, targets)[0] for ctx in contexts])
    if logprobs is not None:
        table += logprobs[(slice(None),) + rows]
    return table


_U32 = 2.0 ** -24  # unit roundoff of float32


def _float32_scores(contexts, logprobs, rows, targets, emb):
    """_context_scores' table computed in float32, with a rounding bound.

    Returns (table, bound), both (contexts, steps) float64, such that
    |table - _context_scores(...)| <= bound wherever table is finite; an
    infinite bound marks an entry the derivation below does not cover.
    picked - lse is widened to float64 before the log belief is added. Two
    row halves on two threads (T._split_rows) give the values of one pass
    on OpenBLAS's SkylakeX, SandyBridge and Nehalem kernels, where that was
    checked. Haswell's sgemm rounds a row by its place in the call, so there
    the halves' table can differ from one pass in the last bits; the bound
    below and the winners taken from it still hold. Overflow to inf or nan
    raises no warning here: those steps are recomputed in float64, which
    reports its own.

    The bound. Let u = 2^-24, d the embedding width, n the item count, c a
    context row, e_j the output embeddings, a = |c| * max_j |e_j| (Euclidean
    norms), L the float32 logits of c, m their maximum and p = L[target].
    Assumptions: numpy's float32 and float64 exp and log are within 4 ulp
    (its AVX2/AVX-512 float32 kernels are documented at 2.52 and 3.83 ulp,
    libm's at under 1; a test checks the float32 ones on the running
    machine); one float32 ulp of y is at most 2u|y|; a < 2^100, so no
    float32 logit overflows; (n + d) u <= 0.01. Entries outside these get
    an infinite bound, so their steps are recomputed.

    1. Logits. Rounding c and e to float32 moves c.e by at most (2u + u^2) a;
       the float32 dot product of length d adds gamma_d (1 + u)^2 a in any
       summation order, gamma_d = d u / (1 - d u), and the float64 one its
       own gamma_d a. Together eps <= 1.02 (d + 2) u a.
    2. L[t] - logsumexp(L) moves by at most twice the largest logit change:
       2 eps <= 2.04 (d + 2) u a.
    3. The float32 log-softmax of L against its exact value. With
       x_j = L_j - m, S = sum exp(x_j) in [1, n] and the softmax
       s_j = exp(x_j) / S, -x_j <= -log s_j, so the subtraction's relative
       error u moves S by a relative u * H(s) <= u ln n; exp adds 8u and
       summing non-negative terms gamma_(n-1) <= 1.0102 (n - 1) u. The
       computed sum is S (1 + r) with r <= 1.01 (gamma_(n-1) + 8u
       + 1.01 u ln n); its log is off by at most 1.011 r, log's own error
       adds 8u (ln n + 1), adding m rounds by u (|m| + ln n + 1) and the
       float64 difference p - lse by 2^-53 (|m| + |p| + ln n + 1). Together
       at most u (1.04 n + 11 ln n + 16 + 1.01 (|m| + |p|)).
    4. The float64 table's own log-softmax error is step 3 with 2^-53 in
       place of u, covered by a factor 1 + 2^-20. Adding the log belief
       rounds both tables, by at most 2^-51 |score| together. Gradual
       underflow of rounded inputs, products and exp terms adds at most
       2^-140 (d + n) (1 + max|e|).

        delta = (1 + 2^-20) (u (2.04 (d + 2) a + 1.04 n + 11 ln n + 16
                + 1.01 (|m| + |p|)) + 2^-140 (d + n) (1 + max|e|))
                + 2^-51 |score|

    Two contexts whose float32 scores differ by more than the sum of their
    deltas are ordered the same way in float64.
    """
    n, d = emb.shape
    emb32 = emb.astype(np.float32)
    emax = np.sqrt(np.einsum("ij,ij->i", emb, emb).max())
    at = (slice(None),) + rows
    gathered = contexts[at]
    beliefs = None if logprobs is None else logprobs[at]
    logits = np.empty((targets.size, n), dtype=np.float32)
    table = np.empty((len(contexts), targets.size))
    bound = np.empty_like(table)

    def part(lo, hi):
        buf = logits[lo:hi]
        picks = np.arange(hi - lo), targets[lo:hi]
        for h in range(len(contexts)):
            c = gathered[h, lo:hi]
            np.matmul(c.astype(np.float32), emb32.T, out=buf)
            picked = buf[picks]
            m = buf.max(axis=1, keepdims=True)
            np.subtract(buf, m, out=buf)
            np.exp(buf, out=buf)
            lse = np.log(buf.sum(axis=1)) + m[:, 0]
            score = table[h, lo:hi]
            np.subtract(picked, lse, out=score, dtype=np.float64)
            if beliefs is not None:
                score += beliefs[h, lo:hi]
            a = np.sqrt(np.einsum("ij,ij->i", c, c)) * emax
            size = np.abs(m[:, 0], dtype=np.float64) + np.abs(picked, dtype=np.float64)
            delta = (1.0 + 2.0 ** -20) * (
                _U32 * (2.04 * (d + 2) * a + 1.04 * n + 11.0 * np.log(n) + 16.0 + 1.01 * size)
                + 2.0 ** -140 * (d + n) * (1.0 + emax)) + 2.0 ** -51 * np.abs(score)
            bound[h, lo:hi] = np.where(a < 2.0 ** 100, delta, np.inf)

    with np.errstate(over="ignore", invalid="ignore"):
        T._split_rows(part, targets.size, n)
    if (n + d) * _U32 > 0.01:
        bound[:] = np.inf
    return table, bound


def _winners(contexts, logprobs, rows, targets, emb) -> np.ndarray:
    """Each step's best context, ties to the lowest: the float64 argmax.

    A step keeps its float32 winner when it leads every other context by
    more than twice the step's largest bound, which makes it the float64
    winner too. Every other step, exact ties (gap 0), nan gaps and
    infinite bounds included, is recomputed by _context_scores, whose rows
    get the full table's bits however few are recomputed, provided BLAS
    runs on one thread (T.BLOCK_ROWS). With a threaded BLAS a recomputed
    row can differ from the full table's in its last bit, so a float64 tie
    may resolve to another context than the full table's argmax.
    README's Performance section records how many steps that is, and the
    cost.
    """
    table, bound = _float32_scores(contexts, logprobs, rows, targets, emb)
    top = np.sort(table, axis=0)
    refine = ~(top[-1] - top[-2] > 2.0 * bound.max(axis=0))
    head = np.argmax(table, axis=0)
    if refine.any():
        sub = tuple(r[refine] for r in rows)
        head[refine] = np.argmax(
            _context_scores(contexts, logprobs, sub, targets[refine], emb), axis=0)
    return head


def sequence_scores(batch, config, params, rng=None):
    """Per-step, per-context log scores for a batch, on a pass without dropout.

    Returns (scores, state). scores has one graph-free 1-d tensor per
    context, holding len(seq)-1 entries per sequence in batch order; entry
    t of a sequence's run scores item t+1 given the step-t context. state
    is the padded forward pass, with (B, N, ...) tensors.
    """
    seqs = _checked_sequences(batch, config)
    lengths = np.array([seq.size for seq in seqs])
    noise = npa_model.draw_noise(lengths, config, rng, 0.0)
    state, rows, targets = _forward_rows(seqs, lengths, noise, config, params)
    table = _context_scores(*state.values(), rows, targets,
                            npa_model.output_embeddings(params).data)
    return [Tensor(s) for s in table], state


def _length_buckets(lengths) -> list:
    """The batch indices of each length bucket, shortest bucket first, each
    in batch order. Sorted by length, a batch is cut in two where that
    removes the most padded rows (the short part's rows past its own
    longest sequence), provided it removes at least SPLIT_PADDED_ROWS; each
    part is then cut by the same rule."""
    def cut(part):
        sizes = lengths[part]
        removed = np.arange(1, part.size) * (sizes[-1] - sizes[:-1])
        if not removed.size or removed.max() < SPLIT_PADDED_ROWS:
            return [np.sort(part)]
        at = int(np.argmax(removed)) + 1
        return cut(part[:at]) + cut(part[at:])
    return cut(np.argsort(lengths, kind="stable"))


def _sequence_means(scores, lengths) -> np.ndarray:
    """The mean of each sequence's run of scores (lengths[b] - 1 entries per
    sequence, in batch order), as np.mean gives it: the runs of sequences
    of one length are summed along the rows of one matrix, which adds each
    row in np.mean's order."""
    steps = lengths - 1
    starts = np.cumsum(steps) - steps
    means = np.empty(steps.size)
    for n in np.unique(steps).tolist():
        group = np.flatnonzero(steps == n)
        means[group] = scores[starts[group, None] + np.arange(n)].sum(axis=1) / n
    return means


def _padded_loss(state, rows, targets, head, lengths, emb):
    """(loss, per-sequence mean NLL) of one bucket's padded forward pass,
    with the output head over each step's winning context head[i]."""
    at = (head,) + rows
    scores = T.scale(T.linear_cross_entropy(T.gather_rows(state.context, at), T.transpose(emb),
                                            targets), -1.0)
    if state.logprob is not None:
        scores = T.add(scores, T.gather_rows(state.logprob, at))
    return T.scale(T.mean(scores), -1.0), -_sequence_means(scores.data, lengths)


def _loss(seqs, config, params, rng, training):
    """batch_loss over checked id arrays.

    Each bucket's forward pass runs, then its winners, in bucket order, and
    the output heads are built after the last, in bucket order. A cut batch
    passes each bucket's winners and the next bucket's forward pass to
    T._concurrently; the CPU count decides only whether the winners run on
    a worker beside that pass. The winners read only their own pass's
    arrays and the draws are made before, so every value is the one of
    running them in turn.
    """
    lengths = np.array([seq.size for seq in seqs])
    buckets = _length_buckets(lengths)
    noise = npa_model.draw_noise(lengths, config, rng,
                                 config.dropout_rate if training else 0.0, buckets)
    emb = npa_model.output_embeddings(params)

    def forward(b):
        index = buckets[b]
        passes.append(_forward_rows([seqs[i] for i in index], lengths[index], noise[b],
                                    config, params))

    def winners(b):
        state, rows, targets = passes[b]
        heads.append(np.zeros(targets.size, dtype=np.int64) if state.context.shape[0] == 1
                     else _winners(*state.values(), rows, targets, emb.data))

    passes, heads = [], []
    forward(0)
    for b in range(1, len(buckets)):
        T._concurrently(lambda: forward(b), lambda: winners(b - 1))
    winners(len(buckets) - 1)

    steps = lengths - 1
    loss, details = None, np.empty(len(seqs))
    for index, (state, rows, targets), head in zip(buckets, passes, heads):
        part, details[index] = _padded_loss(state, rows, targets, head, lengths[index], emb)
        if len(buckets) > 1:
            part = T.scale(part, steps[index].sum() / steps.sum())
        loss = part if loss is None else T.add(loss, part)
    return loss, details.tolist()


def batch_loss(batch, config, params, rng=None, training=False,
               use_positions=None):
    """Mean negative max-pooled score; returns (loss, per-sequence mean NLL floats).

    The batch runs as length buckets (_length_buckets), each one padded
    graph on its rows of the batch's draws, made once in batch order
    (model.draw_noise), and the loss is the buckets' step-weighted mean. So
    it is the step-weighted mean of the sequences' losses run one at a time
    with the same generator, to rounding, and a batch kept whole computes
    exactly what one padded graph does. use_positions, when given, runs the
    batch on a copy of config with that setting.
    """
    if use_positions not in (None, config.use_positions):
        config = replace(config, use_positions=use_positions)
    return _loss(_checked_sequences(batch, config), config, params, rng, training)


def train(baskets, config, params, train_config: TrainConfig, log=None,
          optimizer: AdamW | None = None):
    """Seeded training loop; returns (params, list of LossReport).

    Baskets shorter than two items are dropped; every other basket is
    checked against max_sequence_length, the item-id range and repeated
    ids before the first step, and a failure names its index in
    ``baskets``. Training records a graph, so it refuses to start inside
    ``tensor.no_grad``. In any_order mode each basket contributes
    permutations_per_basket fresh orderings per epoch and positions are
    skipped; temporal mode requires positions. A passed-in optimizer
    carries its moments across calls; by default a fresh AdamW is built.
    Each batch's graph is dropped right after its backward sweep, so it is
    freed before the gradient clip, the optimizer step and the next
    batch's forward pass.
    """
    if not T._grad_enabled:
        raise RuntimeError("train: called inside tensor.no_grad, which records no graph")
    if not baskets:
        raise ConfigError("train: empty dataset")
    if train_config.mode == TEMPORAL and not config.use_positions:
        raise ConfigError("temporal training requires use_positions=true")
    if train_config.mode == ANY_ORDER and config.use_positions:
        raise ConfigError("any_order training requires use_positions=false")

    arrays = [npa_model._item_ids(b.items if hasattr(b, "items") else b, "train", i)
              for i, b in enumerate(baskets)]
    index = [i for i, b in enumerate(arrays) if b.size >= 2]
    usable = [arrays[i] for i in index]
    if not usable:
        raise ConfigError("train: every basket is shorter than two items")
    npa_model.check_baskets(usable, index, config, "train")
    rng = np.random.default_rng(train_config.seed)
    if optimizer is None:
        optimizer = AdamW(npa_model.trainable_parameters(params, config),
                          lr=train_config.learning_rate,
                          weight_decay=train_config.weight_decay)

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
            loss, details = _loss(batch, config, params, rng, True)
            if not np.isfinite(loss.data):
                raise FloatingPointError(
                    f"non-finite loss in epoch {epoch}, batch starting at {start}")
            T.backward(loss)
            del loss  # the batch's graph: freed before the update allocates
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
