"""The benchmark's workloads, their output checks and their metrics.

Two kinds of workload share one shape: set up several times (the median is
``setup_s``), run operations for a fixed number of seconds, then check and
evaluate outside the timed region.

* A training workload's operation is one optimizer step: one call of
  ``npa.training.train`` over a 64-basket batch, with the optimizer carried
  across calls, so the benchmark times exactly what ``train`` does per step.
* A serving workload's operation is one ``npa.recommend.recommend_topk``
  query, sent by a single closed-loop client.

Every input comes from the workload seed; every MC call gets an explicit
seeded generator (``npa.model.forward`` seeds from OS entropy when given
none, so an unseeded MC run does not repeat).

Set-up and operation times are scaled to reference seconds by the
``hostspeed`` yardstick, run before and after each of them; their wall
times go to the run's notes.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import hostspeed
import tracing

SPLIT = (0.6, 0.2, 0.2)
SETUP_REPEATS = 3
# A set-up is scaled by the median of this many kernel runs on each side: it
# gets two samples, where an operation's scale rests on dozens of operations.
SETUP_KERNEL_RUNS = 7
# Every this many served queries, the ids are compared with the reference
# ranking.
REFERENCE_EVERY = 100
# Two scores within this relative distance count as a tie.
TIE_RTOL = 1e-9
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    why: str
    spec: dict  # npa.data.SynthSpec fields except the seed
    model: dict  # npa.model.ModelConfig fields except num_items
    train: dict  # npa.training.TrainConfig fields except epochs and seed
    quality_steps: int  # valid_nll is taken after this many steps
    valid_baskets: int
    eval_queries: int  # top-k queries checked after training
    k: int = 100


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    spec: dict
    model: dict
    train: dict  # the short training run that builds the served checkpoint
    train_baskets: int
    valid_baskets: int
    instances_per_basket: int
    scoring_kind: str
    k: int = 100
    input_fraction: float = 0.5


WORKLOADS = {w.name: w for w in [
    TrainWorkload(
        name="train_sc_anyorder",
        why="the acceptance experiment's profile (SC, any-order, 200 items); "
            "graph bookkeeping in forward and backward dominates a step",
        spec=dict(num_patterns=8, items_per_pattern=25, patterns_per_basket=(1, 1),
                  noise_probability=0.02, basket_length=(5, 9), num_baskets=5000,
                  within_pool_decay=0.72, within_pool_floor=0.18),
        model=dict(embedding_dim=32, num_layers=2, channels_per_layer=[4, 4],
                   num_patterns=64, variant="SC", dropout_rate=0.1,
                   max_sequence_length=16, use_positions=False),
        train=dict(batch_size=64, learning_rate=2.5e-3, mode="any_order",
                   permutations_per_basket=1),
        quality_steps=16, valid_baskets=128, eval_queries=32),
    TrainWorkload(
        name="train_mc_temporal",
        why="MC with 5 heads over 2,000 items, temporal, baskets of 4-24: "
            "quadratic attention, uneven lengths and a wide output head",
        spec=dict(num_patterns=40, items_per_pattern=50, patterns_per_basket=(1, 3),
                  noise_probability=0.05, basket_length=(4, 24), num_baskets=2000),
        model=dict(embedding_dim=32, num_layers=2, channels_per_layer=[4, 4],
                   num_patterns=64, variant="MC", mc_last_layer_heads=5,
                   dropout_rate=0.1, max_sequence_length=32, use_positions=True),
        train=dict(batch_size=64, learning_rate=2.5e-3, mode="temporal",
                   gradient_clip_norm=1.0),
        quality_steps=8, valid_baskets=64, eval_queries=32),
    ServeWorkload(
        name="serve_mc_10k",
        why="closed-loop top-k serving of an MC checkpoint over 10,000 items: "
            "inference only, so scoring and ranking weigh most",
        spec=dict(num_patterns=50, items_per_pattern=200, patterns_per_basket=(1, 2),
                  noise_probability=0.05, basket_length=(4, 16), num_baskets=2500),
        model=dict(embedding_dim=32, num_layers=2, channels_per_layer=[4, 4],
                   num_patterns=64, variant="MC", mc_last_layer_heads=5,
                   max_sequence_length=32, use_positions=True),
        # A small batch keeps set-up training's autodiff graph below the
        # serving path's own memory, so peak_rss_mb measures serving.
        train=dict(batch_size=1, learning_rate=2.5e-3, mode="temporal",
                   gradient_clip_norm=1.0),
        train_baskets=2, valid_baskets=64, instances_per_basket=2,
        scoring_kind="fesf"),
]}


def derive(seed, *stream):
    """A 32-bit seed for one named use of the workload seed."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def generator(seed, *stream):
    return np.random.default_rng([seed, *stream])


def percentile_ms(seconds, q):
    """The q-th percentile in milliseconds; NaN for no samples."""
    if len(seconds) == 0:
        return math.nan
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def tail_percentile(n, candidates=PERCENTILES):
    """The highest candidate percentile with at least 10 samples beyond it.

    Returns None when even the lowest candidate has fewer than 10.
    """
    best = None
    for q in candidates:
        if n * (100 - q) / 100 >= 10 - 1e-9:
            best = q
    return best


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- checks

def reference_scores(contexts, embeddings, scoring_kind, temperature=1.0):
    """Item scores from final-step contexts, computed without npa.recommend."""
    logits = embeddings @ np.atleast_2d(contexts).T / temperature  # (items, contexts)
    if scoring_kind == "softmax":
        z = logits[:, 0] - logits[:, 0].max()
        p = np.exp(z)
        return p / p.sum()
    top = logits.max(axis=1)
    return top + np.log(np.exp(logits - top[:, None]).sum(axis=1))


def reference_topk(scores, exclude, k):
    """Full sort by descending score, ties to the lower id, exclusions removed."""
    ids = np.arange(scores.size)
    order = np.lexsort((ids, -scores))
    keep = np.ones(scores.size, dtype=bool)
    keep[np.asarray(sorted(set(exclude)), dtype=np.int64)] = False
    return order[keep[order]][:k].tolist()


def matches_reference(served, expected, scores):
    """Served ids equal the reference, up to swaps among tied scores."""
    if len(served) != len(expected):
        return False
    scale = max(1e-300, float(np.max(np.abs(scores))))
    return all(a == b or abs(scores[a] - scores[b]) <= TIE_RTOL * scale
               for a, b in zip(served, expected))


def served_list_ok(rec, basket, k, num_items):
    """k distinct in-range ids, none from the basket, scores non-increasing."""
    ids, scores = rec.item_ids, np.asarray(rec.scores, dtype=np.float64)
    return (len(ids) == k and len(set(ids)) == k and scores.size == k
            and all(0 <= i < num_items for i in ids)
            and not set(ids) & set(basket)
            and bool(np.all(np.isfinite(scores)))
            and bool(np.all(np.diff(scores) <= 0)))


def reference_ok(npa, rec, basket, config, params, k, scoring_kind, rng):
    state = npa.model.forward(basket, config, params, rng_seed=rng)
    final = np.stack([ctx.data[-1] for ctx in state.contexts])
    emb = npa.model.output_embeddings(params).data
    scores = reference_scores(final, emb, scoring_kind)
    return matches_reference(rec.item_ids, reference_topk(scores, basket, k), scores)


# ----------------------------------------------------------------- runs

@dataclass
class Outcome:
    """What a run measured and checked."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    setup_seconds: list = field(default_factory=list)  # reference seconds
    setup_wall_seconds: list = field(default_factory=list)
    op_seconds: list = field(default_factory=list)  # untraced operations, wall
    op_marks: list = field(default_factory=list)  # the yardstick sample each follows
    op_predictions: list = field(default_factory=list)
    traced_op_seconds: list = field(default_factory=list)
    valid_nll: float = math.nan
    yardstick: hostspeed.Yardstick = field(default_factory=hostspeed.Yardstick)
    notes: dict = field(default_factory=dict)

    def fail(self, what):
        self.failed += 1
        self.correct = False
        self.notes.setdefault("failures", []).append(what)


def _attempt(outcome, what, fn, *args, **kwargs):
    """Call fn; on an exception, print it, count a failure and return None."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # any library error is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        outcome.fail(f"{what} raised")
        return None


def _make_data(npa, w, seed):
    spec = npa.data.SynthSpec(seed=derive(seed, 1), **w.spec)
    _catalog, baskets, _truth = npa.data.gen_synthetic(spec)
    train, valid, test = npa.data.split_dataset(baskets, SPLIT, seed=derive(seed, 2))
    config = npa.model.ModelConfig(
        num_items=spec.num_patterns * spec.items_per_pattern, **w.model)
    return config, train, valid, test


def _temporal(w):
    return w.train["mode"] == "temporal"


def _valid_nll(npa, w, config, params, valid, seed, outcome):
    """Mean held-out loss per prediction, one basket per batch_loss call so
    that a validation batch's autodiff graph never sets the peak memory."""
    seqs = [b.items for b in valid if len(b.items) >= 2][:w.valid_baskets]
    rng = generator(seed, 9)  # one stream across calls, as for one batch
    total = 0.0
    for seq in seqs:
        result = _attempt(outcome, "valid_nll", npa.training.batch_loss, [seq], config,
                          params, rng=rng, training=False,
                          use_positions=config.use_positions)
        if result is None:
            return
        total += float(result[0].data) * (len(seq) - 1)
    outcome.valid_nll = total / sum(len(s) - 1 for s in seqs)
    if not math.isfinite(outcome.valid_nll):
        outcome.fail(f"valid_nll {outcome.valid_nll}")


def _timed_setup(npa, w, seed, outcome, tracer, build):
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous repeat's data go before rebuilding
        mark = outcome.yardstick.measure(SETUP_KERNEL_RUNS)
        with tracer.span("bench.setup"):
            started = time.perf_counter()
            state = build(npa, w, seed)
            elapsed = time.perf_counter() - started
        outcome.yardstick.measure(SETUP_KERNEL_RUNS)
        outcome.setup_wall_seconds.append(elapsed)
        outcome.setup_seconds.append(elapsed * outcome.yardstick.scale(mark))
    return state


def _build_training(npa, w, seed):
    config, train, valid, test = _make_data(npa, w, seed)
    instances, _ = npa.data.make_eval_instances(
        test[:w.eval_queries], 0.5, seed=derive(seed, 3), temporal=_temporal(w))
    params = npa.model.init_params(config, seed=derive(seed, 4))
    optimizer = npa.optim.AdamW(npa.model.trainable_parameters(params, config),
                                lr=w.train["learning_rate"])
    return config, params, optimizer, train, valid, instances


def _round_trip(npa, config, params, path):
    """Save and reload a checkpoint; the file is removed afterwards."""
    try:
        npa.checkpoint.save_checkpoint(path, config, params)
        return npa.checkpoint.load_checkpoint(path)
    finally:
        path.unlink(missing_ok=True)


def _build_serving(npa, w, seed, workdir, tracer):
    config, train, valid, test = _make_data(npa, w, seed)
    params = npa.model.init_params(config, seed=derive(seed, 4))
    _, reports = npa.training.train(
        train[:w.train_baskets], config, params,
        npa.training.TrainConfig(epochs=1, seed=derive(seed, 5), **w.train))
    tracer.add("train_preds", reports[0].num_steps)
    config, params = _round_trip(npa, config, params, workdir / f"{w.name}-{seed}.ckpt")
    instances, _ = npa.data.make_eval_instances(
        test, w.input_fraction, seed=derive(seed, 3), temporal=_temporal(w),
        instances_per_basket=w.instances_per_basket)
    return config, params, valid, instances


def _set_tracing(npa, tracer, on):
    if on:
        tracer.instrument(npa)
    else:
        tracer.uninstrument()


def _operation(npa, tracer, outcome, index, root, call):
    """Run one timed operation; returns (result or None, seconds, traced).

    ``call`` takes no arguments and looks the npa function up itself, after
    tracing is switched on or off for this operation. A traced run
    alternates untraced and traced operations, so the two means give the
    tracing overhead under the same conditions.
    """
    traced = tracer.enabled and index % 2 == 1
    mark = outcome.yardstick.tick()
    _set_tracing(npa, tracer, traced)
    tracer.op = index if traced else -1
    outcome.attempted += 1
    with tracer.span(root) if traced else nullcontext():
        started = time.perf_counter()
        result = _attempt(outcome, f"{root} {index}", call)
        elapsed = time.perf_counter() - started
    tracer.op = -1
    _set_tracing(npa, tracer, tracer.enabled)
    outcome.yardstick.tick()
    if result is not None and traced:
        outcome.traced_op_seconds.append(elapsed)
    elif result is not None:
        outcome.op_seconds.append(elapsed)
        outcome.op_marks.append(mark)
    return result, elapsed, traced


def run_training(npa, w, seed, seconds, tracer, workdir):
    outcome = Outcome()
    _set_tracing(npa, tracer, tracer.enabled)
    config, params, optimizer, train, valid, instances = _timed_setup(
        npa, w, seed, outcome, tracer, _build_training)

    order_rng = generator(seed, 6)
    order = order_rng.permutation(len(train))
    cursor = 0
    batch_size = w.train["batch_size"]
    measured = 0.0
    step = 0
    while step < w.quality_steps or measured < seconds:
        if cursor + batch_size > len(order):
            order, cursor = order_rng.permutation(len(train)), 0
        batch = [train[i] for i in order[cursor:cursor + batch_size]]
        cursor += batch_size
        train_config = npa.training.TrainConfig(epochs=1, seed=derive(seed, 100, step),
                                                **w.train)
        result, elapsed, traced = _operation(
            npa, tracer, outcome, step, "bench.step",
            lambda: npa.training.train(batch, config, params, train_config,
                                       optimizer=optimizer))
        measured += elapsed
        if result is not None:
            report = result[1][0]
            if not math.isfinite(report.mean_nll):
                outcome.fail(f"step {step}: loss {report.mean_nll}")
            if traced:
                tracer.add("train_preds", report.num_steps)
            else:
                outcome.op_predictions.append(report.num_steps)
        step += 1
        if step == w.quality_steps:
            _valid_nll(npa, w, config, params, valid, seed, outcome)

    with tracer.span("bench.evaluate"):
        loaded = _attempt(outcome, "checkpoint round trip", _round_trip, npa, config, params,
                          workdir / f"{w.name}-{seed}.ckpt")
        if loaded is not None:
            loaded_config, loaded_params = loaded
            # Checkpoints store float32, so the round trip rounds each weight once.
            same = loaded_config == config and all(
                np.array_equal(a.data.astype(np.float32), b.data)
                for (_, a), (_, b) in zip(npa.model.named_parameters(params),
                                          npa.model.named_parameters(loaded_params)))
            if not same:
                outcome.fail("checkpoint round trip changed the model")
            _evaluate_queries(npa, w, seed, loaded_config, loaded_params, instances, outcome)
    tracer.uninstrument()
    return outcome


def _evaluate_queries(npa, w, seed, config, params, instances, outcome):
    """Top-k on held-out instances after training, each checked in full."""
    kind = "fesf" if config.variant == "MC" else "softmax"
    ranked = []
    for qi, inst in enumerate(instances):
        outcome.attempted += 1
        rec = _attempt(outcome, f"evaluation query {qi}", npa.recommend.recommend_topk,
                       inst.inputs, config, params, w.k, scoring_kind=kind,
                       rng_seed=generator(seed, 8, qi))
        if rec is None:
            continue
        if not (served_list_ok(rec, inst.inputs, w.k, config.num_items)
                and reference_ok(npa, rec, inst.inputs, config, params, w.k, kind,
                                 generator(seed, 8, qi))):
            outcome.fail(f"evaluation query {qi}: served list fails its checks")
        ranked.append((rec.item_ids, inst.labels))
    report = _attempt(outcome, "compute_metrics", npa.metrics.compute_metrics, ranked)
    if report is not None:
        outcome.notes["eval_r_precision"] = report.r_precision


def run_serving(npa, w, seed, seconds, tracer, workdir):
    outcome = Outcome()
    _set_tracing(npa, tracer, tracer.enabled)
    config, params, valid, instances = _timed_setup(
        npa, w, seed, outcome, tracer,
        lambda npa, w, seed: _build_serving(npa, w, seed, workdir, tracer))

    # (query index, instance, Recommendation) of the queries that get the
    # reference check; the others are checked as they come, so the process's
    # memory does not grow with the number of queries served.
    sampled = []
    block = []
    started = time.perf_counter()
    qi = 0
    while time.perf_counter() - started < seconds:
        inst = instances[qi % len(instances)]
        rng = generator(seed, 7, qi)
        rec, _, traced = _operation(
            npa, tracer, outcome, qi, "bench.query",
            lambda: npa.recommend.recommend_topk(inst.inputs, config, params, w.k,
                                                 scoring_kind=w.scoring_kind,
                                                 rng_seed=rng))
        if rec is not None:
            if not served_list_ok(rec, inst.inputs, w.k, config.num_items):
                outcome.fail(f"query {qi}: served list fails its checks")
            elif qi % REFERENCE_EVERY == 0:
                sampled.append((qi, inst, rec))
            block.append((rec.item_ids, inst.labels))
            if not traced:
                outcome.op_predictions.append(1)
        qi += 1
        if len(block) == 100:
            # Scored in blocks as an evaluation run would, inside the wall time.
            _attempt(outcome, "compute_metrics", npa.metrics.compute_metrics, block)
            block = []

    with tracer.span("bench.evaluate"):
        for q, inst, rec in sampled:
            if not reference_ok(npa, rec, inst.inputs, config, params, w.k,
                                w.scoring_kind, generator(seed, 7, q)):
                outcome.fail(f"query {q}: served ids differ from the reference")
        _valid_nll(npa, w, config, params, valid, seed, outcome)
    tracer.uninstrument()
    outcome.notes["served_instances"] = len(instances)
    return outcome


def run(npa, w, seed, seconds, tracer, workdir):
    """Run workload ``w`` and return its Outcome; spans go to ``tracer``."""
    runner = run_training if isinstance(w, TrainWorkload) else run_serving
    return runner(npa, w, seed, seconds, tracer, workdir)


# -------------------------------------------------------------- metrics

def reference_op_seconds(outcome):
    """The untraced operations' times in reference seconds."""
    return [t * outcome.yardstick.scale(mark)
            for t, mark in zip(outcome.op_seconds, outcome.op_marks)]


def end_to_end(outcome):
    """The end-to-end metrics of an untraced run, by name: (value, unit).

    Times are in reference seconds (see ``hostspeed``). ``pred_per_s`` is
    the predictions the untraced operations made over their summed time:
    trained next items for a training run, answered queries for a serving
    run's closed loop.
    """
    seconds = reference_op_seconds(outcome)
    return {
        "pred_per_s": (sum(outcome.op_predictions) / sum(seconds) if seconds else math.nan,
                       "1/s"),
        "op_ms_p50": (percentile_ms(seconds, 50), "ms"),
        "valid_nll": (outcome.valid_nll, "nats"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(outcome.setup_seconds), "s"),
    }


def wall_times(outcome):
    """The timing metrics in wall time, and the host's median speed relative
    to the reference (above 1 is faster), for a run's notes."""
    seconds = outcome.op_seconds
    samples = outcome.yardstick.samples
    return {
        "wall_pred_per_s": sum(outcome.op_predictions) / sum(seconds) if seconds else None,
        "wall_op_ms_p50": percentile_ms(seconds, 50) if seconds else None,
        "wall_setup_s": statistics.median(outcome.setup_wall_seconds),
        "host_speed": hostspeed.REFERENCE_S / statistics.median(samples),
        "yardstick_runs": len(samples),
    }


def per_layer(outcome, tracer):
    """Per-layer metrics from a traced run's spans, by name: (value, unit)."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    nodes = tracing.inclusive_nodes(spans)
    names = {s[0]: s[1] for s in spans}
    parents = {s[0]: s[4] for s in spans}

    def inside(span_id, ancestor):
        span_id = parents[span_id]
        while span_id >= 0:
            if names[span_id] == ancestor:
                return True
            span_id = parents[span_id]
        return False

    calls = {}
    for span in spans:
        calls.setdefault(span[1], []).append(span)

    def durations(name):
        return [s[3] - s[2] for s in calls.get(name, ())]

    def mean_ms(name):
        d = durations(name)
        return 1e3 * sum(d) / len(d) if d else 0.0

    def mean_self_ms(name):
        ids = [s[0] for s in calls.get(name, ())]
        return 1e3 * sum(selfs[i] for i in ids) / len(ids) if ids else 0.0

    steps = len(calls.get("optim.adamw_step", ())) or 1
    train_nodes = sum(nodes[s[0]] for s in calls.get("training.train", ()))
    unit_calls = sum(1 for s in calls.get("vqa.unit_forward", ()) if inside(s[0], "training.train"))
    queries = calls.get("recommend.recommend_topk", ())
    topk = durations("recommend.recommend_topk")

    # Attribution: in a traced operation, the self times of the layers below
    # the benchmark's root span add up to what the operation cost.
    per_op = {}
    by_layer = {}
    for span in spans:
        if span[5] >= 0 and not span[1].startswith("bench."):
            per_op[span[5]] = per_op.get(span[5], 0.0) + selfs[span[0]]
            layer = span[1].split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + selfs[span[0]]
    layer_self_ms = 1e3 * statistics.fmean(per_op.values()) if per_op else 0.0
    outcome.notes["self_ms_per_op_by_layer"] = {
        layer: 1e3 * total / len(per_op) for layer, total in sorted(by_layer.items())}
    traced_ms = 1e3 * statistics.fmean(outcome.traced_op_seconds or [math.nan])
    untraced_ms = 1e3 * statistics.fmean(outcome.op_seconds or [math.nan])

    # Not a listed metric: the acceptance profile never clips, so it reads 0
    # on train_sc_anyorder. It is kept with the run's notes instead.
    outcome.notes["optim.clip_grad_norm_ms"] = mean_ms("optim.clip_grad_norm")
    ms, count = "ms", "count"
    return {
        "tensor.nodes_per_step": (train_nodes / steps, count),
        "tensor.nodes_per_pred": (train_nodes / max(1, tracer.totals.get("train_preds", 0)), count),
        "vqa.unit_forward_ms": (mean_ms("vqa.unit_forward"), ms),
        "vqa.unit_forward_calls": (unit_calls / steps, count),
        "model.forward_ms": (mean_ms("model.forward"), ms),
        "model.embed_inputs_ms": (mean_ms("model.embed_inputs"), ms),
        "model.forward_layer_self_ms": (mean_self_ms("model.forward_layer"), ms),
        "tensor.backward_ms": (mean_ms("tensor.backward"), ms),
        "training.sequence_scores_self_ms": (mean_self_ms("training.sequence_scores"), ms),
        "training.train_self_ms": (mean_self_ms("training.train"), ms),
        "optim.adamw_step_ms": (mean_ms("optim.adamw_step"), ms),
        "tensor.nodes_per_query": (sum(nodes[s[0]] for s in queries) / max(1, len(queries)), count),
        "recommend.score_contexts_ms": (mean_ms("recommend.score_contexts"), ms),
        "recommend.rank_items_ms": (mean_ms("recommend.rank_items"), ms),
        "recommend.recommend_topk_ms_p50": (percentile_ms(topk, 50), ms),
        "recommend.recommend_topk_ms_p90": (percentile_ms(topk, 90), ms),
        "recommend.recommend_topk_ms_p99": (percentile_ms(topk, 99), ms),
        "metrics.compute_metrics_ms": (mean_ms("metrics.compute_metrics"), ms),
        "data.gen_synthetic_ms": (mean_ms("data.gen_synthetic"), ms),
        "data.split_dataset_ms": (mean_ms("data.split_dataset"), ms),
        "data.make_eval_instances_ms": (mean_ms("data.make_eval_instances"), ms),
        "model.init_params_ms": (mean_ms("model.init_params"), ms),
        "checkpoint.save_checkpoint_ms": (mean_ms("checkpoint.save_checkpoint"), ms),
        "checkpoint.load_checkpoint_ms": (mean_ms("checkpoint.load_checkpoint"), ms),
        "trace.op_ms_mean": (traced_ms, ms),
        "trace.untraced_op_ms_mean": (untraced_ms, ms),
        "trace.overhead_pct": (100.0 * (traced_ms / untraced_ms - 1.0), "%"),
        "trace.layer_self_ms_per_op": (layer_self_ms, ms),
    }
