"""Tests of the benchmark's own helpers and a tiny run of each workload.

Run with ``python -m pytest benchmarks``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hostspeed
import run
import tracing
import workloads

npa = run.load_npa()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def span(span_id, name, start, end, parent, op=-1, nodes=0):
    return (span_id, name, start, end, parent, op, nodes)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50), (39, 50), (40, 75), (100, 90), (199, 90),
    (200, 95), (1000, 99), (9999, 99), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert workloads.tail_percentile(n) == expected


def test_yardstick_scales_by_the_samples_around_an_operation():
    stick = hostspeed.Yardstick()
    stick.samples = [0.01, 0.02, 0.04]
    assert stick.scale(0) == pytest.approx(hostspeed.REFERENCE_S / 0.015)
    assert stick.scale(1) == pytest.approx(hostspeed.REFERENCE_S / 0.03)
    # The last operation may have no sample after it yet.
    assert stick.scale(2) == pytest.approx(hostspeed.REFERENCE_S / 0.04)


def test_yardstick_ticks_once_per_interval():
    stick = hostspeed.Yardstick(interval=3600)
    assert stick.tick() == 0
    assert stick.tick() == 0
    stick.measure()
    assert stick.tick() == 1
    assert len(stick.samples) == 2 and all(t > 0 for t in stick.samples)


def test_timing_metrics_are_in_reference_seconds():
    stick = hostspeed.Yardstick()
    # The host runs at half the reference speed, then at the reference speed.
    stick.samples = [2 * hostspeed.REFERENCE_S] * 2 + [hostspeed.REFERENCE_S] * 2
    outcome = workloads.Outcome(op_seconds=[0.4, 0.4, 0.2], op_marks=[0, 1, 2],
                                op_predictions=[10, 10, 10], setup_seconds=[1.0],
                                setup_wall_seconds=[2.0], valid_nll=1.0, yardstick=stick)
    metrics = workloads.end_to_end(outcome)
    assert metrics["pred_per_s"][0] == pytest.approx(30 / (0.2 + 0.4 / 1.5 + 0.2))
    assert metrics["op_ms_p50"][0] == pytest.approx(200.0)
    walls = workloads.wall_times(outcome)
    assert walls["wall_op_ms_p50"] == pytest.approx(400.0)
    assert walls["host_speed"] == pytest.approx(2 / 3)


def test_self_time_subtracts_children_once():
    spans = [
        span(2, "grandchild", 1.5, 2.0, 1),
        span(1, "child", 1.0, 3.0, 0),
        span(3, "overlapping child", 2.0, 5.0, 0),
        span(4, "child running past its parent", 9.0, 12.0, 0),
        span(0, "root", 0.0, 10.0, -1),
    ]
    selfs = tracing.self_times(spans)
    # The children cover [1, 5] and [9, 10] of the root's [0, 10].
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(3.0)


def test_inclusive_nodes_roll_up_to_ancestors():
    spans = [
        span(2, "grandchild", 1.5, 2.0, 1, nodes=4),
        span(1, "child", 1.0, 3.0, 0, nodes=2),
        span(3, "sibling", 4.0, 5.0, 0, nodes=1),
        span(0, "root", 0.0, 10.0, -1, nodes=10),
    ]
    assert tracing.inclusive_nodes(spans) == {0: 17, 1: 6, 2: 4, 3: 1}


def test_reference_topk_breaks_ties_toward_lower_id():
    scores = np.array([1.0, 3.0, 3.0, 2.0, 3.0, 3.0])
    assert workloads.reference_topk(scores, exclude=[4], k=4) == [1, 2, 5, 3]
    assert workloads.reference_topk(scores, exclude=[], k=2) == [1, 2]


def test_matches_reference_allows_only_swaps_among_ties():
    scores = np.array([1.0, 3.0, 3.0, 2.0])
    assert workloads.matches_reference([2, 1, 3], [1, 2, 3], scores)
    assert not workloads.matches_reference([1, 3, 2], [1, 2, 3], scores)
    assert not workloads.matches_reference([1, 2], [1, 2, 3], scores)


@pytest.mark.parametrize("ids, scores, ok", [
    ([3, 0, 2], [0.9, 0.5, 0.5], True),
    ([3, 0], [0.9, 0.5], False),  # fewer than k
    ([3, 3, 2], [0.9, 0.5, 0.4], False),  # repeated id
    ([3, 0, 9], [0.9, 0.5, 0.4], False),  # out of range
    ([3, 1, 2], [0.9, 0.5, 0.4], False),  # basket item
    ([3, 0, 2], [0.5, 0.9, 0.4], False),  # scores rise
    ([3, 0, 2], [0.9, np.nan, 0.4], False),
])
def test_served_list_checks(ids, scores, ok):
    rec = SimpleNamespace(item_ids=ids, scores=scores)
    assert workloads.served_list_ok(rec, basket=[1, 4], k=3, num_items=5) is ok


def test_reference_scores_rank_like_recommend():
    rng = np.random.default_rng(0)
    emb, contexts = rng.normal(size=(50, 8)), rng.normal(size=(3, 8))
    fesf = npa.recommend.score_fesf(contexts, emb).scores
    np.testing.assert_allclose(workloads.reference_scores(contexts, emb, "fesf"), fesf)
    soft = npa.recommend.score_softmax(contexts[0], emb).scores
    np.testing.assert_allclose(workloads.reference_scores(contexts[:1], emb, "softmax"), soft)


def test_tracer_records_spans_and_restores_functions():
    config = npa.model.ModelConfig(num_items=12, embedding_dim=8, num_layers=2,
                                   channels_per_layer=[2, 2], num_patterns=4,
                                   max_sequence_length=6)
    params = npa.model.init_params(config, seed=0)
    original = npa.model.forward, npa.vqa.unit_forward, npa.tensor.matmul
    tracer = tracing.Tracer()
    tracer.instrument(npa)
    try:
        with tracer.span("bench.query"):
            npa.recommend.recommend_topk([1, 2, 3], config, params, k=4)
    finally:
        tracer.uninstrument()
    assert (npa.model.forward, npa.vqa.unit_forward, npa.tensor.matmul) == original
    names = [s[1] for s in tracer.spans]
    assert names.count("vqa.unit_forward") == 4
    assert names[-1] == "bench.query"
    nodes = tracing.inclusive_nodes(tracer.spans)
    root = tracer.spans[-1][0]
    assert nodes[root] > 0
    assert sum(s[6] for s in tracer.spans) == nodes[root]


def tiny(w):
    """The same workload shape at a size that runs in about a second."""
    spec = dict(w.spec, num_patterns=6, items_per_pattern=10, num_baskets=240)
    spec["basket_length"] = (4, 8)
    if isinstance(w, workloads.TrainWorkload):
        return dataclasses.replace(w, spec=spec, train=dict(w.train, batch_size=8),
                                   quality_steps=2, valid_baskets=8, eval_queries=4, k=20)
    return dataclasses.replace(w, spec=spec, train_baskets=8, valid_baskets=8, k=20)


def listed(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_workload_passes_every_check(name, seed, tmp_path):
    w = tiny(workloads.WORKLOADS[name])
    outcome = workloads.run(npa, w, seed, 0.3, tracing.NullTracer(), tmp_path)
    assert outcome.correct and outcome.failed == 0, outcome.notes
    assert outcome.attempted >= 1
    metrics = workloads.end_to_end(outcome)
    assert {k: unit for k, (_, unit) in metrics.items()} == listed("end_to_end")
    assert all(value > 0 and np.isfinite(value) for value, _ in metrics.values())

    tracer = tracing.Tracer()
    outcome = workloads.run(npa, w, seed, 0.3, tracer, tmp_path)
    assert outcome.correct and outcome.failed == 0, outcome.notes
    layers = workloads.per_layer(outcome, tracer)
    assert {k: unit for k, (_, unit) in layers.items()} == listed("per_layer")
    # Untraced operations of a traced run leave no childless spans behind.
    parents = {s[4] for s in tracer.spans}
    assert all(s[0] in parents for s in tracer.spans
               if s[1] in ("training.train", "recommend.recommend_topk"))
    assert list(tmp_path.iterdir()) == []


def test_mc_valid_nll_repeats_under_a_seed(tmp_path):
    w = tiny(workloads.WORKLOADS["train_mc_temporal"])
    first, second = (workloads.run(npa, w, 5, 0.1, tracing.NullTracer(), tmp_path)
                     for _ in range(2))
    assert first.valid_nll == second.valid_nll


def test_wrong_ranking_fails_the_reference_check(tmp_path, monkeypatch):
    rank_items = npa.recommend.rank_items

    def skips_the_best(scores, exclude=(), k=None):
        return rank_items(scores, exclude)[1:k + 1]

    monkeypatch.setattr(npa.recommend, "rank_items", skips_the_best)
    w = tiny(workloads.WORKLOADS["serve_mc_10k"])
    outcome = workloads.run(npa, w, 1, 0.2, tracing.NullTracer(), tmp_path)
    assert not outcome.correct
    assert 1 <= outcome.failed <= outcome.attempted


def test_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    recommend_topk = npa.recommend.recommend_topk
    calls = []

    def every_third_raises(*args, **kwargs):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise npa.errors.ConfigError("injected")
        return recommend_topk(*args, **kwargs)

    monkeypatch.setattr(npa.recommend, "recommend_topk", every_third_raises)
    w = tiny(workloads.WORKLOADS["serve_mc_10k"])
    outcome = workloads.run(npa, w, 1, 0.2, tracing.NullTracer(), tmp_path)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted // 3
    assert len(outcome.op_seconds) == outcome.attempted - outcome.failed


def test_benchmark_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "serve_mc_10k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert Path(tmp_path / "benchmarks" / "out").exists() is False
