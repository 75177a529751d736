"""Objectives and training loop: permutations, losses, determinism, dynamics."""


import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from npa import model as npa_model
from npa import tensor as T
from npa import training as training_mod
from npa.data import SynthSpec, gen_synthetic
from npa.errors import ConfigError
from npa.model import (draw_noise, forward, init_params, named_parameters,
                       output_embeddings, trainable_parameters)
from npa.optim import AdamW, clip_grad_norm
from npa.training import (ANY_ORDER, SPLIT_PADDED_ROWS, TEMPORAL, TrainConfig,
                          _context_scores, _float32_scores, _forward_rows, _length_buckets,
                          _sequence_means, _winners, batch_loss, sample_permutation,
                          sequence_scores, train)

import composed as C
from conftest import force_split, small_mc_config, small_sc_config


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
    loss, _ = batch_loss([[3, 1, 2], [5, 6]], cfg, params)
    np.testing.assert_allclose(float(loss.data), np.log(cfg.num_items), rtol=1e-12)


def test_loss_ar_two_item_basket_matches_manual_step():
    cfg = small_sc_config(use_positions=True)
    params = init_params(cfg, seed=1)
    seq = [4, 11]
    loss = float(batch_loss([seq], cfg, params)[0].data)
    from npa.model import forward, output_embeddings
    ctx = forward(seq, cfg, params).contexts[0].data[0]
    logits = output_embeddings(params).data @ ctx
    p = np.exp(logits - logits.max())
    p /= p.sum()
    np.testing.assert_allclose(loss, -np.log(p[11]), rtol=1e-12)


def test_loss_mc_single_head_equals_loss_ar_exactly():
    # With one head the max-pool is the identity: the loss is the
    # autoregressive mean of the per-step scores.
    cfg = small_mc_config(mc_last_layer_heads=1)
    params = init_params(cfg, seed=2)
    batch = [[3, 1, 2], [5, 6, 1, 0]]
    m, _ = batch_loss(batch, cfg, params, rng=np.random.default_rng(9))
    (scores,), _ = sequence_scores(batch, cfg, params, rng=np.random.default_rng(9))
    assert abs(float(m.data) + scores.data.mean()) <= 1e-12


def test_loss_mc_matches_enumeration_oracle():
    cfg = small_mc_config(mc_last_layer_heads=3)
    params = init_params(cfg, seed=3)
    batch = [[3, 1, 2, 8], [5, 6, 9]]
    got = float(batch_loss(batch, cfg, params, rng=np.random.default_rng(4))[0].data)
    # Mirror batch_loss's single rng stream across the batch, then max-pool
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
    got = float(batch_loss(batch, cfg, params, rng=rng)[0].data)
    rng = np.random.default_rng(7)
    scores, _ = sequence_scores(batch, cfg, params, rng=rng)
    table = np.stack([s.data for s in scores], axis=1)
    assert (table[:, 1] >= table[:, 0]).all(), "construction should make head 1 dominate"
    np.testing.assert_allclose(got, -table[:, 1].mean(), rtol=1e-12)


@pytest.mark.parametrize("objective", [batch_loss, sequence_scores])
def test_short_sequence_error_names_batch_index_not_another_function(objective):
    cfg = small_sc_config()
    params = init_params(cfg, seed=5)
    for batch, message in (([[1]], "sequence 0 "), ([[1, 2], [1]], "sequence 1 "),
                           ([], "empty batch")):
        with pytest.raises(ConfigError, match=message) as err:
            objective(batch, cfg, params, rng=np.random.default_rng(0))
        assert "sequence_scores" not in str(err.value)


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


@pytest.mark.parametrize("make_config", [small_sc_config, small_mc_config])
def test_second_backward_through_a_batch_reproduces_gradients(make_config):
    # Inner gradients start fresh in every sweep, and no backward closure
    # overwrites an array it saved, so a re-run gives the same gradients.
    cfg = make_config(dropout_rate=0.2)
    params = init_params(cfg, seed=2)
    loss, _ = batch_loss([[3, 1, 2, 7], [5, 6], [9, 4, 8]], cfg, params,
                         rng=np.random.default_rng(1), training=True)
    T.backward(loss)
    first = {n: p.grad.copy() for n, p in named_parameters(params) if p.grad is not None}
    for _, p in named_parameters(params):
        p.grad = None
    T.backward(loss)
    again = {n: p.grad for n, p in named_parameters(params) if p.grad is not None}
    assert first.keys() == again.keys()
    for n, g in first.items():
        np.testing.assert_array_equal(again[n], g, err_msg=n)


def test_train_zero_epochs_leaves_parameters():
    cfg = small_sc_config(use_positions=False)
    params = init_params(cfg, seed=9)
    before = {n: p.data.copy() for n, p in named_parameters(params)}
    tc = TrainConfig(epochs=0, batch_size=4, mode=ANY_ORDER, seed=1)
    train([[1, 2, 3], [4, 5]], cfg, params, tc)
    for n, p in named_parameters(params):
        assert np.array_equal(before[n], p.data)


@pytest.mark.parametrize("layers", [1, 2])
def test_greedy_sc_trains_without_last_layer_query_and_pattern_key(layers):
    # Greedy extraction takes an argmax, so no gradient reaches the last
    # layer's w_query and w_pattern_key; training must leave them out.
    cfg = small_sc_config(num_layers=layers, channels_per_layer=[2] * layers,
                          sc_last_extraction="greedy")
    params = init_params(cfg, seed=3)
    before = {n: p.data.copy() for n, p in named_parameters(params)}
    frozen = {f"layers.{layers - 1}.channels.{c}.{name}"
              for c in range(2) for name in ("w_query", "w_pattern_key")}
    assert {n for n, _ in trainable_parameters(params, cfg)} == set(before) - frozen
    baskets = [np.random.default_rng(i).choice(20, size=5, replace=False).tolist()
               for i in range(16)]
    train(baskets, cfg, params, TrainConfig(epochs=1, batch_size=8, learning_rate=1e-2))
    for n, p in named_parameters(params):
        assert np.array_equal(before[n], p.data) == (n in frozen), n


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


def test_train_clips_gradients_like_the_manual_steps():
    # Two steps of one epoch, with a bound below every step's gradient norm.
    cfg = small_mc_config(dropout_rate=0.2)
    baskets = [np.random.default_rng(i).choice(20, size=3 + i % 4, replace=False)
               for i in range(6)]
    tc = TrainConfig(epochs=1, batch_size=3, learning_rate=1e-2, seed=4,
                     gradient_clip_norm=0.05)

    params = init_params(cfg, seed=2)
    rng = np.random.default_rng(tc.seed)
    opt = AdamW(trainable_parameters(params, cfg), lr=tc.learning_rate,
                weight_decay=tc.weight_decay)
    order = rng.permutation(len(baskets))
    for start in range(0, len(order), tc.batch_size):
        batch = [baskets[i] for i in order[start:start + tc.batch_size]]
        loss, _ = batch_loss(batch, cfg, params, rng=rng, training=True)
        T.backward(loss)
        assert clip_grad_norm(opt.params, tc.gradient_clip_norm) > tc.gradient_clip_norm
        opt.step()
        opt.zero_grad()
    manual = {n: p.data.copy() for n, p in named_parameters(params)}

    def trained(clip):
        params = init_params(cfg, seed=2)
        train(baskets, cfg, params, dataclasses.replace(tc, gradient_clip_norm=clip))
        return {n: p.data for n, p in named_parameters(params)}

    clipped, unclipped = trained(tc.gradient_clip_norm), trained(None)
    for n, want in manual.items():
        assert np.array_equal(clipped[n], want), n
    assert any(not np.array_equal(unclipped[n], want) for n, want in manual.items())


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


@pytest.mark.parametrize("baskets, message", [
    ([], "train: empty dataset"),
    ([[1], [], [3]], "train: every basket is shorter than two items"),
], ids=["empty", "all_short"])
def test_train_rejects_a_dataset_with_nothing_to_learn(baskets, message):
    cfg = small_sc_config(use_positions=False)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        train(baskets, cfg, init_params(cfg, seed=0),
              TrainConfig(epochs=1, mode=ANY_ORDER, seed=0))


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
    ([1, 3, 2, 3, 1], "basket 5: item id 3 repeats"),
], ids=["too_long", "id_out_of_range", "repeated_id"])
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


@pytest.mark.parametrize("bad, message", [
    ([1, 2, 3, 4, 5, 6, 7, 8, 9], "sequence of 9 items exceeds max_sequence_length 8"),
    ([1, 2, 20], r"item id 20 out of range \[0, 20\)"),
    ([1, 3, 2, 3, 1], "item id 3 repeats"),
], ids=["too_long", "id_out_of_range", "repeated_id"])
def test_batch_loss_names_the_bad_sequence(bad, message):
    cfg = small_sc_config(use_positions=True)
    params = init_params(cfg, seed=21)
    with pytest.raises(ConfigError, match=f"^batch_loss: basket 1: {message}$"):
        batch_loss([[1, 2], bad, [3, 4]], cfg, params, rng=np.random.default_rng(0))


def test_unseeded_mc_batch_loss_repeats():
    # No generator means the fixed seed 0, so unseeded MC losses repeat.
    cfg = small_mc_config(mc_last_layer_heads=3)
    params = init_params(cfg, seed=22)
    batch = [[3, 1, 2, 8], [5, 6, 9]]
    first, details = batch_loss(batch, cfg, params)
    again, details_again = batch_loss(batch, cfg, params)
    assert float(first.data) == float(again.data)
    assert details == details_again


@pytest.mark.parametrize("use_positions", [False, True])
def test_batch_loss_use_positions_runs_on_replaced_config(use_positions):
    # The keyword is kept for callers that pass it; a value that differs
    # from the config's is the config with that setting, to the bit.
    cfg = small_mc_config(mc_last_layer_heads=2, use_positions=not use_positions)
    params = init_params(cfg, seed=23)
    batch = [[3, 1, 2, 8], [5, 6, 9]]
    got, details = batch_loss(batch, cfg, params, rng=np.random.default_rng(4),
                              use_positions=use_positions)
    other = dataclasses.replace(cfg, use_positions=use_positions)
    want, want_details = batch_loss(batch, other, params, rng=np.random.default_rng(4))
    same, _ = batch_loss(batch, cfg, params, rng=np.random.default_rng(4),
                         use_positions=cfg.use_positions)
    plain, _ = batch_loss(batch, cfg, params, rng=np.random.default_rng(4))
    assert float(got.data) == float(want.data) and details == want_details
    assert float(same.data) == float(plain.data) != float(got.data)


def _grads(loss, params, cfg):
    T.backward(loss)
    out = {}
    for name, p in trainable_parameters(params, cfg):
        out[name] = np.zeros_like(p.data) if p.grad is None else p.grad
        p.grad = None
    return out


def _first_repeat(batch):
    """(index, id) of the first sequence that repeats an id and the first
    id it repeats; None when no sequence does."""
    for b, seq in enumerate(batch):
        seen = set()
        for item in seq:
            if item in seen:
                return b, item
            seen.add(item)
    return None


# Most drawn batches repeat an id and are only checked for the rejection;
# 200 examples still compare about 30 repeat-free batches.
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch=st.lists(st.lists(st.integers(0, 19), min_size=2, max_size=8),
                      min_size=1, max_size=8),
       variant=st.sampled_from(["SC", "MC"]), training=st.booleans(),
       use_positions=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(batch=[[0, 0], [0, 0, 0, 0]], variant="SC", training=False, use_positions=False, seed=0)
def test_padded_batch_matches_sequences_run_alone(batch, variant, training,
                                                  use_positions, seed):
    factory = small_mc_config if variant == "MC" else small_sc_config
    cfg = factory(dropout_rate=0.3, use_positions=use_positions)
    params = init_params(cfg, seed=23)
    repeat = _first_repeat(batch)
    if repeat is not None:
        # A basket never repeats an id, so the batch is rejected up front.
        with pytest.raises(ConfigError, match=rf"^batch_loss: basket {repeat[0]}: "
                                              rf"item id {repeat[1]} repeats$"):
            batch_loss(batch, cfg, params, rng=np.random.default_rng(seed), training=training)
        return
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


def test_length_buckets_on_the_measured_profiles():
    # The benchmark's MC profile (64 baskets of 4-24) is cut, its SC profile
    # (64 of 5-9) and any batch of 6 baskets or fewer of lengths 2-24 are not.
    rng = np.random.default_rng(0)
    for _ in range(200):
        lengths = rng.integers(4, 25, size=64)
        buckets = _length_buckets(lengths)
        assert len(buckets) >= 2
        np.testing.assert_array_equal(np.sort(np.concatenate(buckets)), np.arange(64))
        for shorter, longer in zip(buckets, buckets[1:]):
            assert lengths[shorter].max() <= lengths[longer].min()
        assert all((np.diff(b) > 0).all() for b in buckets)  # batch order kept
        assert len(_length_buckets(rng.integers(5, 10, size=64))) == 1
    for size in range(1, 7):
        assert len(_length_buckets(np.array([2] * (size - 1) + [24]))) == 1
        assert len(_length_buckets(rng.integers(2, 25, size=size))) == 1


def test_length_buckets_cut_where_most_padding_goes_then_cut_again():
    # Cutting after the 40 short baskets removes 40 x 12 padded rows, more
    # than any other cut; within them, cutting off the 20 of length 2
    # removes 20 x 10.
    lengths = np.array([12] * 20 + [2] * 20 + [24] * 8)
    assert 20 * 10 >= SPLIT_PADDED_ROWS
    buckets = _length_buckets(lengths)
    assert [b.tolist() for b in buckets] == [list(range(20, 40)), list(range(20)),
                                              list(range(40, 48))]


def _split_batch(rng, num_items):
    """48 id sequences in shuffled order, 20 of length 2, 20 of 12 and 8 of
    24, which _length_buckets cuts into three buckets."""
    lengths = rng.permutation([2] * 20 + [12] * 20 + [24] * 8)
    return [rng.choice(num_items, size=n, replace=False).tolist() for n in lengths]


@pytest.mark.parametrize("variant, training, tied", [
    pytest.param(variant, training, tied, id=f"{variant}-{training}" + ("-tied" if tied else ""))
    for variant, training, tied in [("SC", True, False), ("MC", True, False), ("MC", False, False),
                                    ("SC", True, True), ("MC", True, True)]])
def test_split_batch_matches_sequences_run_alone(variant, training, tied):
    factory = small_mc_config if variant == "MC" else small_sc_config
    cfg = factory(num_items=30, dropout_rate=0.3, max_sequence_length=24,
                  tie_output_embeddings=tied)
    params = init_params(cfg, seed=23)
    batch = _split_batch(np.random.default_rng(4), cfg.num_items)
    assert len(_length_buckets(np.array([len(seq) for seq in batch]))) == 3
    loss, details = batch_loss(batch, cfg, params, rng=np.random.default_rng(5),
                               training=training)
    grads = _grads(loss, params, cfg)

    rng = np.random.default_rng(5)
    steps = np.array([len(seq) - 1 for seq in batch], dtype=float)
    alone, alone_details = 0.0, []
    expected = {name: np.zeros_like(g) for name, g in grads.items()}
    for seq, w in zip(batch, steps / steps.sum()):
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


def _composed_padded_loss(seqs, lengths, noise, config, params):
    """training._padded_loss with the output head as two graph nodes, a
    matmul on the transposed table and then the cross entropy, and the
    details as one np.mean per sequence."""
    state, rows, targets = _forward_rows(seqs, lengths, noise, config, params)
    emb = output_embeddings(params)
    head = np.zeros(targets.size, dtype=np.int64)
    if state.context.shape[0] > 1:
        head = _winners(*state.values(), rows, targets, emb.data)
    at = (head,) + rows
    logits = T.matmul(T.gather_rows(state.context, at), T.transpose(emb))
    scores = T.scale(C.cross_entropy_with_logits(logits, targets), -1.0)
    if state.logprob is not None:
        scores = T.add(scores, T.gather_rows(state.logprob, at))
    parts = np.split(scores.data, np.cumsum(lengths - 1)[:-1])
    return T.scale(T.mean(scores), -1.0), np.array([-np.mean(part) for part in parts])


@pytest.mark.parametrize("variant", ["SC", "MC"])
@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
def test_fused_head_equals_matmul_then_cross_entropy_on_cut_batches(monkeypatch, variant,
                                                                     tied):
    # Loss, details and two backward sweeps' gradients agree to the bit with
    # the two-node head; a head that added the table's gradient itself,
    # past the transpose node, would change the order of a tied table's sum.
    factory = small_mc_config if variant == "MC" else small_sc_config
    cfg = factory(num_items=30, dropout_rate=0.3, max_sequence_length=24,
                  tie_output_embeddings=tied)
    params = init_params(cfg, seed=23)
    batch = _split_batch(np.random.default_rng(4), cfg.num_items)

    def run():
        loss, details = batch_loss(batch, cfg, params, rng=np.random.default_rng(5),
                                   training=True)
        out = [np.array([float(loss.data)] + details)]
        for _ in range(2):
            T.backward(loss)
            out += [np.ascontiguousarray(t.grad) for _, t in named_parameters(params)]
        for _, t in named_parameters(params):
            t.grad = None
        return out

    fused = run()
    monkeypatch.setattr(training_mod, "_padded_loss", _composed_padded_loss)
    composed = run()
    assert len(fused) == len(composed)
    for got, want in zip(fused, composed):
        assert got.tobytes() == want.tobytes()


def test_sequence_means_equal_np_mean_per_sequence():
    # Row sums over sequences of one length add in np.mean's order: short
    # runs, runs past numpy's 8-wide unrolling and past its 128-long blocks.
    rng = np.random.default_rng(6)
    for _ in range(40):
        lengths = rng.choice([2, 3, 4, 5, 9, 10, 17, 64, 129, 130, 300], size=rng.integers(1, 30))
        scores = rng.normal(size=(lengths - 1).sum()) * 10.0 ** rng.integers(-3, 4)
        want = [np.mean(part) for part in np.split(scores, np.cumsum(lengths - 1)[:-1])]
        assert _sequence_means(scores, lengths).tobytes() == np.array(want).tobytes()


def test_split_batch_runs_each_basket_on_its_whole_batch_draws(monkeypatch):
    cfg = small_mc_config(num_items=30, dropout_rate=0.3, max_sequence_length=24)
    params = init_params(cfg, seed=23)
    batch = _split_batch(np.random.default_rng(4), cfg.num_items)
    lengths = np.array([len(seq) for seq in batch])
    calls = []
    forward_ = npa_model.forward

    def recording(*args, noise=None, **kwargs):
        calls.append(noise)
        return forward_(*args, noise=noise, **kwargs)

    monkeypatch.setattr(npa_model, "forward", recording)
    batch_loss(batch, cfg, params, rng=np.random.default_rng(5), training=True)
    whole = draw_noise(lengths, cfg, np.random.default_rng(5), cfg.dropout_rate)
    buckets = _length_buckets(lengths)
    assert len(calls) == len(buckets) == 3

    def channels_first(layer):
        merge = layer.merge_uniforms
        return layer.keep_masks, layer.uniforms, None if merge is None else merge[None]

    for noise, index in zip(calls, buckets):
        for got, want in zip(noise, whole):
            for part, full in zip(channels_first(got), channels_first(want)):
                assert (part is None) == (full is None)
                for row, b in enumerate(index if full is not None else []):
                    assert (part[:, row, :lengths[b]].tobytes()
                            == full[:, b, :lengths[b]].tobytes())


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
    noise = draw_noise(lengths, cfg, rng, cfg.dropout_rate if training else 0.0)
    state = forward(ids, cfg, params, lengths=lengths, noise=noise)
    rows = np.nonzero(steps < lengths[:, None] - 1)
    targets = ids[rows[0], rows[1] + 1]
    emb_t = T.transpose(output_embeddings(params))
    columns = []
    for h, ctx in enumerate(state.contexts):
        logits = T.matmul(T.gather_rows(ctx, rows), emb_t)
        score = T.scale(C.cross_entropy_with_logits(logits, targets), -1.0)
        if state.logprob is not None:
            score = T.add(score, T.gather_rows(state.logprob, (np.full(targets.size, h),) + rows))
        columns.append(T.reshape(score, (score.shape[0], 1)))
    table = T.concat(columns)
    pooled = C.take_per_row(table, np.argmax(table.data, axis=1))
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
@given(batch=st.lists(st.lists(st.integers(0, 19), min_size=2, max_size=8, unique=True),
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
    head0.codebook.data[:] = head0.codebook.data[0]
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

    assert sum(op(n) == "linear_cross_entropy" and n._parents[1]._parents == (emb,)
               for n in nodes) == 1
    assert not any(op(n) == "matmul" and any(p is emb or emb in p._parents for p in n._parents)
                   for n in nodes)


def test_mc_training_losses_pinned():
    # Three seeded MC steps with dropout, losses recorded at commit 0e9bc5b,
    # whose winners came from the float64 table alone. A change to the
    # objective, the winner selection or the gradients moves these bits.
    # They also depend on the BLAS kernels: recorded with numpy 2.4's
    # OpenBLAS on x86-64 with AVX-512.
    cfg = small_mc_config(num_items=60, mc_last_layer_heads=3, dropout_rate=0.3,
                          max_sequence_length=12)
    params = init_params(cfg, seed=31)
    opt = AdamW(trainable_parameters(params, cfg), lr=1e-2)
    data, rng = np.random.default_rng(32), np.random.default_rng(33)
    losses = []
    for _ in range(3):
        batch = [data.choice(60, size=data.integers(2, 12), replace=False).tolist()
                 for _ in range(6)]
        loss, _ = batch_loss(batch, cfg, params, rng=rng, training=True)
        T.backward(loss)
        clip_grad_norm(opt.params, 1.0)
        opt.step()
        opt.zero_grad()
        losses.append(float(loss.data).hex())
    assert losses == ["0x1.59fa5e2bb6a00p+2", "0x1.56fe920ec670bp+2",
                      "0x1.528799f411660p+2"]


def test_float32_exp_and_log_within_four_ulp():
    # _float32_scores' bound assumes numpy's float32 exp and log err by at
    # most 4 units in the last place; check it on this platform's kernels.
    rng = np.random.default_rng(0)
    x = np.concatenate([-rng.uniform(0, 87, 200_000), -rng.uniform(0, 1e-3, 50_000),
                        [0.0]]).astype(np.float32)
    y = np.concatenate([rng.uniform(1, 3, 100_000), np.exp(rng.uniform(0, 12, 100_000)),
                        1 + rng.uniform(0, 1e-4, 50_000)]).astype(np.float32)
    for f, v in ((np.exp, x), (np.log, y)):
        ref = f(v.astype(np.float64))
        ulp = np.spacing(np.abs(ref).astype(np.float32)).astype(np.float64)
        assert (np.abs(f(v).astype(np.float64) - ref) <= 4 * ulp).all(), f.__name__


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.sampled_from([2, 20, 300]), steps=st.integers(1, 40),
       extra_heads=st.integers(0, 2), eps=st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, 1e-5, 1e-3]),
       scale=st.floats(0.05, 50.0), slack=st.sampled_from([0.0, 1e-15, 1e-9, 1e-6]),
       seed=st.integers(0, 2**32 - 1))
def test_float32_winners_equal_float64_argmax_on_near_ties(n, steps, extra_heads, eps,
                                                           scale, slack, seed):
    # Head 1 is head 0 moved by eps along v, and its log belief cancels the
    # score gap up to `slack`, so steps tie or nearly tie on purpose;
    # |c| * max|e| reaches about `scale`.
    rng = np.random.default_rng(seed)
    d = 8
    emb = rng.normal(size=(n, d))
    emb /= np.linalg.norm(emb, axis=1).max()
    c0 = rng.normal(size=(steps, d))
    c0 *= scale / np.linalg.norm(c0, axis=1, keepdims=True)
    v = rng.normal(size=(steps, d))
    ctxs = [c0, c0 + eps * v] + [rng.normal(size=(steps, d)) for _ in range(extra_heads)]
    rows, targets = (np.arange(steps),), rng.integers(0, n, size=steps)
    contexts = np.stack(ctxs)
    base = _context_scores(contexts, None, rows, targets, emb)
    beliefs = -rng.exponential(size=(len(ctxs), steps))
    beliefs[1] = beliefs[0] + (base[0] - base[1]) + slack * rng.normal(size=steps)
    exact = _context_scores(contexts, beliefs, rows, targets, emb)
    table, bound = _float32_scores(contexts, beliefs, rows, targets, emb)
    assert (np.abs(table - exact) <= bound).all()
    np.testing.assert_array_equal(_winners(contexts, beliefs, rows, targets, emb),
                                  np.argmax(exact, axis=0))


def test_float32_overflow_steps_fall_back_to_float64():
    # Contexts beyond float32's range overflow the float32 table; those steps
    # must be recomputed in float64, without a warning from the float32 pass.
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(30, 8))
    ctxs = [rng.normal(size=(6, 8)) for _ in range(3)]
    ctxs[1][[1, 4]] *= 1e40
    ctxs[2][2] *= 1e36  # float32 logits overflow, the cast does not
    contexts = np.stack(ctxs)
    rows, targets = (np.arange(6),), rng.integers(0, 30, size=6)
    exact = _context_scores(contexts, None, rows, targets, emb)
    assert np.isfinite(exact).all()
    np.testing.assert_array_equal(_winners(contexts, None, rows, targets, emb),
                                  np.argmax(exact, axis=0))


def test_float32_bound_is_infinite_past_its_catalog_size():
    # The derivation assumes (n + d) u <= 0.01, about 168,000 items; past it
    # every bound is infinite, so every step is recomputed in float64.
    rng = np.random.default_rng(4)
    emb = rng.normal(size=(170_000, 2))
    contexts = rng.normal(size=(2, 3, 2))
    rows, targets = (np.arange(3),), rng.integers(0, 170_000, size=3)
    _, bound = _float32_scores(contexts, None, rows, targets, emb)
    assert np.isinf(bound).all()
    np.testing.assert_array_equal(_winners(contexts, None, rows, targets, emb),
                                  np.argmax(_context_scores(contexts, None, rows, targets, emb),
                                            axis=0))


def test_float32_table_and_winners_split_are_bit_identical(monkeypatch):
    rng = np.random.default_rng(6)
    emb = rng.normal(size=(300, 8)) / 3
    contexts = rng.normal(size=(4, 3, 20, 8))
    rows = np.nonzero(np.arange(20) < np.array([[19], [7], [12]]))
    targets = rng.integers(0, 300, size=rows[0].size)
    beliefs = -rng.exponential(size=(4, 3, 20))
    exact = _context_scores(contexts, beliefs, rows, targets, emb)
    runs = {}
    for cpus in (1, 2):
        calls = force_split(monkeypatch, cpus)
        table, bound = _float32_scores(contexts, beliefs, rows, targets, emb)
        assert (np.abs(table - exact) <= bound).all()
        head = _winners(contexts, beliefs, rows, targets, emb)
        np.testing.assert_array_equal(head, np.argmax(exact, axis=0))
        runs[cpus] = (table.tobytes(), bound.tobytes(), head.tobytes())
        assert bool(calls) == (cpus == 2)
    assert runs[1] == runs[2]


def test_mc_training_split_leaves_parameters_byte_equal(monkeypatch):
    # 20 MC steps over 64-basket batches of lengths 4-24, each cut into
    # length buckets, with dropout and clipping: splitting the output
    # head and the winner table across two threads changes no bit.
    cfg = small_mc_config(num_items=60, mc_last_layer_heads=3, dropout_rate=0.2,
                          max_sequence_length=24)
    data = np.random.default_rng(41)
    baskets = [data.choice(60, size=data.integers(4, 25), replace=False).tolist()
               for _ in range(320)]
    cuts = []
    real_buckets = training_mod._length_buckets
    monkeypatch.setattr(training_mod, "_length_buckets",
                        lambda lengths: cuts.append(len(b := real_buckets(lengths))) or b)
    runs = {}
    for cpus in (1, 2):
        calls = force_split(monkeypatch, cpus)
        params = init_params(cfg, seed=42)
        _, reports = train(baskets, cfg, params, TrainConfig(
            epochs=4, batch_size=64, learning_rate=1e-2, seed=43, gradient_clip_norm=1.0))
        runs[cpus] = [t.data.tobytes() for _, t in named_parameters(params)]
        runs[cpus].append(float(reports[-1].mean_nll).hex())
        assert bool(calls) == (cpus == 2)
    assert len(cuts) == 40 and min(cuts) > 1
    assert runs[1] == runs[2]
