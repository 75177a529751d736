"""Objectives and training loop: permutations, losses, determinism, dynamics."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from npa import tensor as T
from npa.data import SynthSpec, gen_synthetic
from npa.errors import ConfigError
from npa.model import (forward, init_params, named_parameters, output_embeddings,
                       trainable_parameters)
from npa.optim import AdamW
from npa.training import (ANY_ORDER, TEMPORAL, TrainConfig, batch_loss, loss_ar,
                          loss_mc, sample_permutation, sequence_scores, train)

from conftest import small_mc_config, small_sc_config


def test_sample_permutation_uniform_for_pairs():
    rng = np.random.default_rng(0)
    flipped = sum(sample_permutation([7, 9], rng)[0] == 9 for _ in range(10_000))
    assert abs(flipped / 10_000 - 0.5) < 0.02


def test_sample_permutation_replay_identical():
    a = sample_permutation([1, 2, 3, 4], np.random.default_rng(5))
    b = sample_permutation([1, 2, 3, 4], np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_sample_permutation_short_basket_skips():
    assert sample_permutation([3], np.random.default_rng(0)) is None
    assert sample_permutation([], np.random.default_rng(0)) is None


def test_loss_ar_uniform_scorer_is_log_m():
    cfg = small_sc_config()
    params = init_params(cfg, seed=0)
    params.output_embeddings.data = np.zeros_like(params.output_embeddings.data)
    loss = loss_ar([[3, 1, 2], [5, 6]], cfg, params)
    np.testing.assert_allclose(float(loss.data), np.log(cfg.num_items), rtol=1e-12)


def test_loss_ar_two_item_basket_matches_manual_step():
    cfg = small_sc_config(use_positions=True)
    params = init_params(cfg, seed=1)
    seq = [4, 11]
    loss = float(loss_ar([seq], cfg, params).data)
    from npa.model import forward, output_embeddings
    ctx = forward(seq, cfg, params).contexts[0].data[0]
    logits = output_embeddings(params).data @ ctx
    p = np.exp(logits - logits.max())
    p /= p.sum()
    np.testing.assert_allclose(loss, -np.log(p[11]), rtol=1e-12)


def test_loss_mc_single_head_equals_loss_ar_exactly():
    cfg = small_mc_config(mc_last_layer_heads=1)
    params = init_params(cfg, seed=2)
    batch = [[3, 1, 2], [5, 6, 1, 0]]
    a = loss_ar(batch, cfg, params, rng=np.random.default_rng(9))
    m = loss_mc(batch, cfg, params, rng=np.random.default_rng(9))
    assert abs(float(a.data) - float(m.data)) <= 1e-12


def test_loss_mc_matches_enumeration_oracle():
    cfg = small_mc_config(mc_last_layer_heads=3)
    params = init_params(cfg, seed=3)
    batch = [[3, 1, 2, 8], [5, 6, 9]]
    got = float(loss_mc(batch, cfg, params, rng=np.random.default_rng(4)).data)
    # Mirror loss_mc's single rng stream across the batch, then max-pool
    # each sequence's per-step head table by hand.
    rng = np.random.default_rng(4)
    values = []
    for seq in batch:
        scores, _ = sequence_scores([seq], cfg, params, rng=rng)
        table = np.stack([s.data for s in scores], axis=1)
        values.extend(table.max(axis=1).tolist())
    np.testing.assert_allclose(got, -np.mean(values), rtol=1e-12)


def test_loss_mc_dominant_head_defines_loss():
    cfg = small_mc_config(mc_last_layer_heads=2, use_positions=False, num_patterns=64)
    params = init_params(cfg, seed=6)
    # Head 0 gets a uniform scorer and a uniform belief over 64 patterns,
    # pinning its per-step score at -(log 20 + log 64); head 1's belief is
    # sharpened to near-one-hot so its sampled-pattern term is ~0, which
    # puts it above head 0 at every step by a ~4 nat margin.
    head0 = params.layers[-1].channels[0]
    head0.w_value.data = np.zeros_like(head0.w_value.data)
    head0.w_query.data = np.zeros_like(head0.w_query.data)
    params.layers[-1].channels[1].w_query.data *= 50.0
    batch = [[3, 1, 2, 8]]
    rng = np.random.default_rng(7)
    got = float(loss_mc(batch, cfg, params, rng=rng).data)
    rng = np.random.default_rng(7)
    scores, _ = sequence_scores(batch, cfg, params, rng=rng)
    table = np.stack([s.data for s in scores], axis=1)
    assert (table[:, 1] >= table[:, 0]).all(), "construction should make head 1 dominate"
    np.testing.assert_allclose(got, -table[:, 1].mean(), rtol=1e-12)


def test_loss_ar_rejects_multi_context_model():
    cfg = small_mc_config(mc_last_layer_heads=2)
    params = init_params(cfg, seed=5)
    with pytest.raises(ConfigError, match="single context"):
        loss_ar([[1, 2]], cfg, params, rng=np.random.default_rng(0))


def test_teacher_forcing_uses_only_past_item_features():
    cfg = small_sc_config(use_positions=True)
    params = init_params(cfg, seed=8)
    seq = [3, 1, 2, 8, 9]
    t = 2  # score of seq[2] given prefix seq[:2]
    def step_logits():
        from npa.model import forward, output_embeddings
        ctx = forward(seq, cfg, params).contexts[0].data[t - 1]
        return output_embeddings(params).data @ ctx
    base = step_logits()
    for future_item in (8, 9):  # appear only after step t
        params.item_embeddings.data[future_item] += 3.0
    np.testing.assert_array_equal(base, step_logits())


def test_train_zero_epochs_leaves_parameters():
    cfg = small_sc_config(use_positions=False)
    params = init_params(cfg, seed=9)
    before = {n: p.data.copy() for n, p in named_parameters(params)}
    tc = TrainConfig(epochs=0, batch_size=4, mode=ANY_ORDER, seed=1)
    train([[1, 2, 3], [4, 5]], cfg, params, tc)
    for n, p in named_parameters(params):
        assert np.array_equal(before[n], p.data)


def test_train_seeded_runs_bit_identical():
    cfg = small_sc_config(use_positions=False, dropout_rate=0.1)
    baskets = [np.random.default_rng(i).choice(20, size=4, replace=False).tolist()
               for i in range(12)]
    results = []
    for _ in range(2):
        params = init_params(cfg, seed=10)
        tc = TrainConfig(epochs=2, batch_size=4, mode=ANY_ORDER,
                         permutations_per_basket=2, seed=42)
        train(baskets, cfg, params, tc)
        results.append({n: p.data.copy() for n, p in named_parameters(params)})
    for n in results[0]:
        assert np.array_equal(results[0][n], results[1][n]), n


def test_train_modes_validate_positions():
    cfg = small_sc_config(use_positions=True)
    params = init_params(cfg, seed=11)
    with pytest.raises(ConfigError, match="use_positions"):
        train([[1, 2]], cfg, params, TrainConfig(epochs=1, mode=ANY_ORDER, seed=0))
    cfg2 = small_sc_config(use_positions=False)
    with pytest.raises(ConfigError, match="use_positions"):
        train([[1, 2]], cfg2, init_params(cfg2, seed=0),
              TrainConfig(epochs=1, mode=TEMPORAL, seed=0))


def test_train_config_validation():
    with pytest.raises(ConfigError, match="forbids permutation"):
        TrainConfig(epochs=1, mode=TEMPORAL, permutations_per_basket=2)
    with pytest.raises(ConfigError, match="mode"):
        TrainConfig(epochs=1, mode="shuffled")


def test_smoothed_loss_decreases_over_300_steps():
    spec = SynthSpec(num_patterns=4, items_per_pattern=10, patterns_per_basket=(1, 1),
                     noise_probability=0.05, basket_length=(4, 6), num_baskets=300,
                     seed=21, within_pool_decay=0.7, within_pool_floor=0.2)
    _, baskets, _ = gen_synthetic(spec)
    cfg = small_sc_config(num_items=40, embedding_dim=16, channels_per_layer=[2, 2],
                          num_patterns=16, use_positions=False)
    params = init_params(cfg, seed=12)
    from npa.model import trainable_parameters
    opt = AdamW(trainable_parameters(params, cfg), lr=3e-3, weight_decay=0.01)
    rng = np.random.default_rng(13)
    losses = []
    items = [b.items for b in baskets]
    for step in range(300):
        chunk = [items[int(i)] for i in rng.integers(0, len(items), size=8)]
        batch = [sample_permutation(c, rng) for c in chunk]
        loss, _ = batch_loss(batch, cfg, params, rng=rng, training=True)
        T.backward(loss)
        opt.step()
        opt.zero_grad()
        losses.append(float(loss.data))
    smoothed = np.convolve(losses, np.ones(20) / 20, mode="valid")
    assert smoothed[-1] < smoothed[0]
    assert smoothed[-1] < 0.8 * smoothed[0]


def test_train_reports_have_positive_nll_and_lengths():
    cfg = small_sc_config(use_positions=False)
    baskets = [[1, 2, 3], [4, 5], [6, 7, 8, 9], [1]]
    params = init_params(cfg, seed=14)
    tc = TrainConfig(epochs=2, batch_size=2, mode=ANY_ORDER, seed=3)
    _, reports = train(baskets, cfg, params, tc)
    assert len(reports) == 2
    for r in reports:
        assert r.mean_nll >= 0 and np.isfinite(r.mean_nll)
        assert set(r.per_length_nll) == {2, 3, 4}  # the length-1 basket is dropped
        assert r.num_sequences == 3


def test_train_aborts_on_non_finite_loss():
    cfg = small_sc_config(use_positions=False)
    params = init_params(cfg, seed=20)
    params.item_embeddings.data[0, 0] = np.nan
    tc = TrainConfig(epochs=1, batch_size=4, mode=ANY_ORDER, seed=0)
    with pytest.raises(FloatingPointError, match="batch"):
        train([[0, 1, 2], [3, 4]], cfg, params, tc)


def test_mc_training_nll_nonnegative_with_dropout():
    cfg = small_mc_config(mc_last_layer_heads=2, use_positions=False, dropout_rate=0.3)
    baskets = [np.random.default_rng(i).choice(20, size=5, replace=False).tolist()
               for i in range(8)]
    params = init_params(cfg, seed=15)
    tc = TrainConfig(epochs=2, batch_size=4, mode=ANY_ORDER, seed=16)
    _, reports = train(baskets, cfg, params, tc)
    for r in reports:
        assert r.mean_nll >= 0


@pytest.mark.parametrize("bad, message", [
    ([1, 2, 3, 4, 5, 6, 7, 8, 9], "basket 5: sequence of 9 items exceeds max_sequence_length 8"),
    ([1, 2, 20], r"basket 5: item id 20 out of range \[0, 20\)"),
], ids=["too_long", "id_out_of_range"])
def test_train_rejects_bad_basket_before_any_step(bad, message):
    cfg = small_sc_config(use_positions=True)
    params = init_params(cfg, seed=21)
    before = {n: p.data.copy() for n, p in named_parameters(params)}
    baskets = [[1, 2], [3, 4, 5], [6, 7], [8, 9, 10], [11, 12], [0], [13, 14], [15, 16]]
    tc = TrainConfig(epochs=1, batch_size=1, mode=TEMPORAL, seed=3)
    usable = [i for i, b in enumerate(baskets) if len(b) >= 2]
    # The bad basket goes where the seeded epoch order reaches it last, so any
    # step would run first if the check came late.
    last = usable[np.random.default_rng(tc.seed).permutation(len(usable))[-1]]
    baskets[last] = bad
    message = message.replace("basket 5", f"basket {last}")
    with pytest.raises(ConfigError, match=message):
        train(baskets, cfg, params, tc)
    for n, p in named_parameters(params):
        assert np.array_equal(before[n], p.data), n


def test_unseeded_mc_batch_loss_repeats():
    # No generator means the fixed seed 0, so unseeded MC losses repeat.
    cfg = small_mc_config(mc_last_layer_heads=3)
    params = init_params(cfg, seed=22)
    batch = [[3, 1, 2, 8], [5, 6, 9]]
    first, details = batch_loss(batch, cfg, params)
    again, details_again = batch_loss(batch, cfg, params)
    assert float(first.data) == float(again.data)
    assert details == details_again


def _grads(loss, params, cfg):
    T.backward(loss)
    out = {}
    for name, p in trainable_parameters(params, cfg):
        out[name] = np.zeros_like(p.data) if p.grad is None else p.grad
        p.grad = None
    return out


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=st.lists(st.lists(st.integers(0, 19), min_size=2, max_size=8),
                      min_size=1, max_size=8),
       variant=st.sampled_from(["SC", "MC"]), training=st.booleans(),
       use_positions=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_padded_batch_matches_sequences_run_alone(batch, variant, training,
                                                  use_positions, seed):
    factory = small_mc_config if variant == "MC" else small_sc_config
    cfg = factory(dropout_rate=0.3, use_positions=use_positions)
    params = init_params(cfg, seed=23)
    loss, details = batch_loss(batch, cfg, params, rng=np.random.default_rng(seed),
                               training=training)
    grads = _grads(loss, params, cfg)

    # The same generator runs each sequence alone, in batch order.
    rng = np.random.default_rng(seed)
    steps = np.array([len(seq) - 1 for seq in batch], dtype=float)
    weights = steps / steps.sum()
    alone, alone_details = 0.0, []
    expected = {name: np.zeros_like(g) for name, g in grads.items()}
    for seq, w in zip(batch, weights):
        one, one_details = batch_loss([seq], cfg, params, rng=rng, training=training)
        alone += w * float(one.data)
        alone_details += one_details
        for name, g in _grads(one, params, cfg).items():
            expected[name] += w * g

    np.testing.assert_allclose(float(loss.data), alone, rtol=1e-12)
    np.testing.assert_allclose(details, alone_details, rtol=1e-12)
    for name, g in grads.items():
        scale = max(np.abs(expected[name]).max(), 1e-300)
        assert np.abs(g - expected[name]).max() <= 1e-12 * scale, name


def test_poisoned_table_row_outside_batch_never_reaches_loss():
    cfg = small_mc_config(mc_last_layer_heads=2, dropout_rate=0.2)
    batch = [[3, 1, 2, 8, 4], [5, 6], [9, 7, 3]]  # uneven, so rows are padded
    params = init_params(cfg, seed=24)
    clean, _ = batch_loss(batch, cfg, params, rng=np.random.default_rng(5), training=True)
    clean_grads = _grads(clean, params, cfg)
    outside = sorted(set(range(cfg.num_items)) - {i for seq in batch for i in seq})
    params.item_embeddings.data[outside] = np.nan
    poisoned, _ = batch_loss(batch, cfg, params, rng=np.random.default_rng(5), training=True)
    assert np.isfinite(poisoned.data)
    assert float(poisoned.data) == float(clean.data)
    for name, g in _grads(poisoned, params, cfg).items():
        assert np.array_equal(g, clean_grads[name]), name


def _all_heads_loss(batch, cfg, params, rng, training):
    """Reference MC objective: a graph over every context's logits and
    cross-entropy, max-pooled per step by concat and take_per_row.

    Returns (loss, per-sequence details) like batch_loss.
    """
    seqs = [np.asarray(seq, dtype=np.int64) for seq in batch]
    lengths = np.array([seq.size for seq in seqs])
    steps = np.arange(lengths.max())
    ids = np.zeros((len(seqs), steps.size), dtype=np.int64)
    ids[steps < lengths[:, None]] = np.concatenate(seqs)
    state = forward(ids, cfg, params, rng_seed=rng, training=training, lengths=lengths)
    rows = np.nonzero(steps < lengths[:, None] - 1)
    targets = ids[rows[0], rows[1] + 1]
    emb_t = T.transpose(output_embeddings(params))
    columns = []
    for ctx, logprob in zip(state.contexts, state.pattern_logprobs):
        logits = T.matmul(T.gather_rows(ctx, rows), emb_t)
        score = T.scale(T.cross_entropy_with_logits(logits, targets), -1.0)
        if logprob is not None:
            score = T.add(score, T.gather_rows(logprob, rows))
        columns.append(T.reshape(score, (score.shape[0], 1)))
    table = T.concat(columns, axis=1)
    pooled = T.take_per_row(table, np.argmax(table.data, axis=1))
    details = [-float(np.mean(part)) for part in np.split(pooled.data, np.cumsum(lengths - 1)[:-1])]
    return T.scale(T.mean(pooled), -1.0), details


def _assert_matches_all_heads(batch, cfg, params, seed, training):
    loss, details = batch_loss(batch, cfg, params, rng=np.random.default_rng(seed),
                               training=training)
    grads = _grads(loss, params, cfg)
    ref, ref_details = _all_heads_loss(batch, cfg, params, np.random.default_rng(seed),
                                       training)
    np.testing.assert_allclose(float(loss.data), float(ref.data), rtol=1e-12)
    np.testing.assert_allclose(details, ref_details, rtol=1e-12)
    for name, g in _grads(ref, params, cfg).items():
        scale = max(np.abs(g).max(), 1e-300)
        assert np.abs(grads[name] - g).max() <= 1e-12 * scale, name
    return grads


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=st.lists(st.lists(st.integers(0, 19), min_size=2, max_size=8),
                      min_size=1, max_size=8),
       heads=st.sampled_from([1, 2, 5]), dropout=st.sampled_from([0.0, 0.3]),
       training=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_mc_loss_matches_all_heads_oracle(batch, heads, dropout, training, seed):
    cfg = small_mc_config(mc_last_layer_heads=heads, dropout_rate=dropout)
    params = init_params(cfg, seed=25)
    _assert_matches_all_heads(batch, cfg, params, seed, training)


def test_mc_exact_tie_goes_to_head_zero():
    cfg = small_mc_config(mc_last_layer_heads=2)
    params = init_params(cfg, seed=26)
    head0, head1 = params.layers[-1].channels
    for attr in ("w_query", "w_key", "w_value", "w_pattern_key", "w_context_query"):
        getattr(head1, attr).data = getattr(head0, attr).data.copy()
    # Identical rows make every sampled pattern the same vector with the same
    # belief, so the two heads score every step identically.
    head0.codebook.entries.data[:] = head0.codebook.entries.data[0]
    batch = [[3, 1, 2, 8, 4], [5, 6], [9, 7, 3]]
    scores, _ = sequence_scores(batch, cfg, params, rng=np.random.default_rng(1))
    np.testing.assert_array_equal(scores[0].data, scores[1].data)
    grads = _assert_matches_all_heads(batch, cfg, params, seed=1, training=True)
    for name, g in grads.items():
        if name.startswith("layers.1.channels.1."):
            assert not g.any(), f"head 1 won a step: {name}"
        if name.startswith("layers.1.channels.0."):
            assert g.any(), f"head 0 won no step: {name}"


def _graph_nodes(loss):
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("heads", [1, 3, 5])
def test_mc_graph_runs_output_head_once(heads):
    cfg = small_mc_config(mc_last_layer_heads=heads)
    params = init_params(cfg, seed=27)
    loss, _ = batch_loss([[3, 1, 2, 8, 4], [5, 6], [9, 7, 3]], cfg, params,
                         rng=np.random.default_rng(2), training=True)
    nodes = _graph_nodes(loss)
    emb = output_embeddings(params)

    def op(node):
        return node._backward.__qualname__.split(".")[0] if node._backward else None

    assert sum(op(n) == "cross_entropy_with_logits" for n in nodes) == 1
    assert sum(op(n) == "matmul" and any(p is emb or emb in p._parents for p in n._parents)
               for n in nodes) == 1
