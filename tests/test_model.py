"""Model composition: embedding, layers, variants, causality, determinism."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

import npa.model
from npa import tensor as T
from npa import vqa
from npa.errors import ConfigError
from npa.model import (LayerNoise, check_baskets, draw_noise, embed_inputs, forward,
                       forward_layer, init_params, layer_channel_plan, named_parameters,
                       trainable_parameters)
from npa.recommend import export_attention, recommend_topk
from npa.tensor import Tensor
from npa.training import TrainConfig, batch_loss, sequence_scores, train

import composed as C
from conftest import small_mc_config, small_sc_config


def test_embed_without_positions_is_raw_rows():
    cfg = small_sc_config(use_positions=False)
    params = init_params(cfg, seed=0)
    out = embed_inputs([3, 1, 3], cfg, params)
    np.testing.assert_array_equal(out.data, params.item_embeddings.data[[3, 1, 3]])


def test_embed_zero_position_table_matches_disabled():
    cfg = small_sc_config(use_positions=True)
    params = init_params(cfg, seed=0)
    params.positional_embeddings.data = np.zeros_like(params.positional_embeddings.data)
    with_pos = embed_inputs([4, 2], cfg, params).data
    without = embed_inputs([4, 2], dataclasses.replace(cfg, use_positions=False), params).data
    np.testing.assert_array_equal(with_pos, without)


def test_embed_duplicate_item_differs_by_position_rows():
    cfg = small_sc_config(use_positions=True)
    params = init_params(cfg, seed=1)
    out = embed_inputs([7, 1, 2, 7], cfg, params).data
    pos = params.positional_embeddings.data
    np.testing.assert_allclose(out[0] - out[3], pos[0] - pos[3], atol=1e-15)


def test_embed_errors():
    cfg = small_sc_config()
    params = init_params(cfg, seed=0)
    with pytest.raises(ConfigError, match="out of range"):
        embed_inputs([25], cfg, params)
    with pytest.raises(ConfigError, match="max_sequence_length"):
        embed_inputs(list(range(9)) + [0] * 4, cfg, params)


@pytest.mark.parametrize("ids, lengths, shown", [
    ([[1, 2, 3], [4, 5, 6]], [3, 0], r"\[3, 0\] do not fit ids \(2, 3\)"),
    ([[1, 2, 3], [4, 5, 6]], [3, 4], r"\[3, 4\] do not fit ids \(2, 3\)"),
    ([[1, 2, 3], [4, 5, 6]], [3], r"\[3\] do not fit ids \(2, 3\)"),
    ([1, 2, 3], [3], r"\[3\] do not fit ids \(3,\)"),
], ids=["zero", "too_long", "one_for_two", "one_basket"])
def test_forward_rejects_lengths_that_do_not_fit_the_ids(ids, lengths, shown):
    cfg = small_sc_config()
    params = init_params(cfg, seed=0)
    with pytest.raises(ConfigError, match=f"^embed_inputs: lengths {shown}$"):
        forward(ids, cfg, params, lengths=lengths)


def test_check_baskets_names_first_basket_and_id_that_repeat():
    cfg = small_sc_config()
    names = ["a", "b", "c", "d"]
    check_baskets([[1, 2], [3, 4, 5], [6], [7, 8]], names, cfg, "evaluate")
    with pytest.raises(ConfigError, match="^evaluate: basket b: item id 4 repeats$"):
        check_baskets([[1, 2], [3, 4, 5, 4, 3], [6], [7, 7]], names, cfg, "evaluate")
    # The same id in two different baskets is no repeat.
    check_baskets([[1, 2], [2, 1]], names[:2], cfg, "evaluate")


@pytest.mark.parametrize("bad", [1.7, float("nan"), float("inf")], ids=["fraction", "nan", "inf"])
@pytest.mark.parametrize("entry, name", [
    ("recommend_topk", None), ("export_attention", None), ("forward", None),
    ("batch_loss", "1"), ("sequence_scores", "1"), ("train", "1"),
    ("embed_inputs", None), ("check_baskets", "0"),
])
def test_fractional_and_non_finite_ids_fail_before_model_work(monkeypatch, tmp_path, entry,
                                                             name, bad):
    cfg = small_sc_config()
    params = init_params(cfg, seed=0)
    basket = [2.0, bad, 5.0]
    batch = [[1, 3, 4], basket]

    def no_model_work(*args, **kwargs):
        raise AssertionError("model work before the id check")

    monkeypatch.setattr(npa.model, "embed_inputs", no_model_work)
    call = {
        "recommend_topk": lambda: recommend_topk(basket, cfg, params, 3),
        "export_attention": lambda: export_attention(basket, cfg, params, tmp_path / "a.txt"),
        "forward": lambda: forward(basket, cfg, params),
        "batch_loss": lambda: batch_loss(batch, cfg, params),
        "sequence_scores": lambda: sequence_scores(batch, cfg, params),
        "train": lambda: train(batch, cfg, params, TrainConfig(epochs=1)),
        # The name imported here is the real embed_inputs, not the patched one.
        "embed_inputs": lambda: embed_inputs(basket, cfg, params),
        "check_baskets": lambda: check_baskets([basket], [0], cfg, "train"),
    }[entry]
    shown = name or ",".join(str(v) for v in basket)
    message = f"basket {shown}: item id {bad} is not an integer"
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("values, shown", [
    (np.array([2 ** 63, 3], dtype=np.uint64), "9223372036854775808"),
    ([3, 2 ** 64 + 5], "18446744073709551621"),
    ([-2 ** 63 - 1, 3], "-9223372036854775809"),
    ([2.0 ** 63, 3.0], "9.223372036854776e+18"),
], ids=["uint64", "beyond_uint64", "below_int64", "float"])
def test_ids_outside_int64_are_named_as_given(values, shown):
    with pytest.raises(ConfigError, match=f"^forward: basket .*: item id {re.escape(shown)} "
                                          "is outside int64's range$"):
        npa.model._item_ids(values, "forward")
    edge = npa.model._item_ids([2 ** 63 - 1, -2 ** 63, 2.0 ** 62], "forward")
    assert edge.dtype == np.int64 and edge.tolist() == [2 ** 63 - 1, -2 ** 63, 2 ** 62]


@pytest.mark.parametrize("entry", ["check_baskets", "train", "check_baskets_ragged",
                                   "train_ragged", "forward_ragged"])
def test_nested_basket_fails_before_model_work(monkeypatch, entry):
    cfg = small_sc_config()
    params = init_params(cfg, seed=0)

    def no_model_work(*args, **kwargs):
        raise AssertionError("model work before the basket check")

    monkeypatch.setattr(npa.model, "embed_inputs", no_model_work)
    call, message = {
        "check_baskets": (lambda: check_baskets([[[1, 2]]], [0], cfg, "x"),
                          "x: basket 0: expected a 1-d id sequence, got shape (1, 2)"),
        "train": (lambda: train([[[1, 2], [3, 4]], [1, 2]], cfg, params, TrainConfig(epochs=1)),
                  "train: basket 0: expected a 1-d id sequence, got shape (2, 2)"),
        # numpy cannot make one array of a ragged basket.
        "check_baskets_ragged": (lambda: check_baskets([[[1, 2], [3]]], [0], cfg, "x"),
                                 "x: basket 0: expected a 1-d id sequence, got a ragged one"),
        "train_ragged": (lambda: train([[1, [2, 3]], [1, 2]], cfg, params, TrainConfig(epochs=1)),
                         "train: basket 0: expected a 1-d id sequence, got a ragged one"),
        "forward_ragged": (lambda: forward([1, [2, 3]], cfg, params),
                           "forward: basket 1,[2, 3]: expected a 1-d id sequence, "
                           "got a ragged one"),
    }[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


def test_check_baskets_rejects_no_baskets_and_an_empty_one():
    cfg = small_sc_config()
    with pytest.raises(ConfigError, match="^train: no baskets$"):
        check_baskets([], [], cfg, "train")
    with pytest.raises(ConfigError, match="^train: basket 1: empty$"):
        check_baskets([[1], []], [0, 1], cfg, "train")


def test_forward_layer_single_channel_identity_merge():
    cfg = small_sc_config(num_layers=1, channels_per_layer=[1])
    params = init_params(cfg, seed=2)
    layer = params.layers[0]
    layer.merge.data = np.eye(cfg.embedding_dim)
    x = Tensor(np.random.default_rng(3).normal(size=(4, 8)))
    strategy = vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE)
    merged, states = forward_layer(x, layer, strategy, LayerNoise(0.0))
    np.testing.assert_array_equal(merged.data, states[0].contexts.data)


def test_forward_layer_causal_noise_after_t():
    cfg = small_sc_config(num_layers=1, channels_per_layer=[2])
    params = init_params(cfg, seed=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 8))
    strategy = vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE)
    base, _ = forward_layer(Tensor(x), params.layers[0], strategy, LayerNoise(0.0))
    x2 = x.copy()
    x2[3:] = rng.normal(size=(2, 8)) * 10
    noisy, _ = forward_layer(Tensor(x2), params.layers[0], strategy, LayerNoise(0.0))
    np.testing.assert_array_equal(base.data[:3], noisy.data[:3])


def test_forward_layer_matches_per_channel_oracle():
    cfg = small_sc_config(num_layers=1, channels_per_layer=[2])
    params = init_params(cfg, seed=6)
    layer = params.layers[0]
    x = Tensor(np.random.default_rng(7).normal(size=(4, 8)))
    strategy = vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE)
    merged, _ = forward_layer(x, layer, strategy, LayerNoise(0.0))
    parts = [vqa.unit_forward(x, unit, strategy).contexts.data for unit in layer.channels]
    expected = np.concatenate(parts, axis=1) @ layer.merge.data.T
    assert np.array_equal(merged.data, expected)


def test_forward_degenerate_config_equals_single_unit():
    cfg = small_sc_config(num_layers=1, channels_per_layer=[1], use_positions=False)
    params = init_params(cfg, seed=8)
    params.layers[0].merge.data = np.eye(cfg.embedding_dim)
    basket = [3, 1, 2]
    state = forward(basket, cfg, params)
    x = params.item_embeddings.data[basket]
    unit = vqa.unit_forward(Tensor(x), params.layers[0].channels[0],
                            vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE))
    np.testing.assert_allclose(state.contexts[0].data, unit.contexts.data, atol=1e-12)


def test_mc_single_head_tiny_temperature_matches_greedy():
    cfg = small_mc_config(mc_last_layer_heads=1, gumbel_temperature=1e-9,
                          use_positions=False)
    params = init_params(cfg, seed=9)
    state = forward([4, 9, 2, 11], cfg, params, rng_seed=123)
    unit_state = state.unit_states[-1][0]
    greedy_idx = np.argmax(unit_state.prefix_attention.data, axis=1)
    np.testing.assert_array_equal(unit_state.pattern_index, greedy_idx)


def test_forward_deterministic_bit_identical_including_mc():
    cfg = small_mc_config()
    params = init_params(cfg, seed=10)
    s1 = forward([1, 2, 3], cfg, params, rng_seed=77)
    s2 = forward([1, 2, 3], cfg, params, rng_seed=77)
    for c1, c2 in zip(s1.contexts, s2.contexts):
        assert np.array_equal(c1.data, c2.data)
    for st1, st2 in zip(s1.unit_states[-1], s2.unit_states[-1]):
        assert np.array_equal(st1.pattern_index, st2.pattern_index)
        assert np.array_equal(st1.prefix_attention.data, st2.prefix_attention.data)


def test_causality_random_perturbations():
    cfg = small_sc_config(use_positions=False)
    params = init_params(cfg, seed=11)
    rng = np.random.default_rng(12)
    for _ in range(25):
        basket = rng.choice(cfg.num_items, size=6, replace=False).tolist()
        t = int(rng.integers(1, 5))
        base = forward(basket, cfg, params).contexts[0].data
        mutated = list(basket)
        for j in range(t + 1, 6):
            mutated[j] = int(rng.integers(cfg.num_items))
        other = forward(mutated, cfg, params).contexts[0].data
        assert np.max(np.abs(base[:t + 1] - other[:t + 1])) <= 1e-9


def test_single_layer_permutation_invariant_final_context():
    cfg = small_sc_config(num_layers=1, channels_per_layer=[2], use_positions=False)
    params = init_params(cfg, seed=13)
    rng = np.random.default_rng(14)
    basket = rng.choice(cfg.num_items, size=6, replace=False)
    base = forward(basket.tolist(), cfg, params).contexts[0].data[-1]
    for _ in range(25):
        perm = rng.permutation(6)
        out = forward(basket[perm].tolist(), cfg, params).contexts[0].data[-1]
        assert np.max(np.abs(base - out)) <= 1e-9


def test_shape_contract_sc_and_mc():
    sc = small_sc_config()
    mc = small_mc_config(mc_last_layer_heads=3)
    basket = [1, 2, 3, 4]
    s = forward(basket, sc, init_params(sc, seed=0))
    assert len(s.contexts) == 1 and s.contexts[0].shape == (4, sc.embedding_dim)
    m = forward(basket, mc, init_params(mc, seed=0), rng_seed=0)
    assert len(m.contexts) == 3
    for c in m.contexts:
        assert c.shape == (4, mc.embedding_dim)


def test_gradient_reaches_every_group_over_suite():
    for cfg in (small_sc_config(use_positions=False),
                small_mc_config(mc_last_layer_heads=3, use_positions=False)):
        params = init_params(cfg, seed=15)
        rng = np.random.default_rng(16)
        hits = {name: False for name, _ in trainable_parameters(params, cfg)}
        for _ in range(8):
            basket = rng.choice(cfg.num_items, size=5, replace=False).tolist()
            loss, _ = batch_loss([basket], cfg, params, rng=rng, training=False)
            T.backward(loss)
            for name, p in trainable_parameters(params, cfg):
                if p.grad is not None and np.abs(p.grad).sum() > 0:
                    hits[name] = True
                p.grad = None
        dead = [n for n, ok in hits.items() if not ok]
        assert not dead, f"no gradient reached: {dead}"


def test_mc_shared_codebook_is_single_tensor():
    cfg = small_mc_config(mc_last_layer_heads=3)
    params = init_params(cfg, seed=17)
    books = {id(u.codebook) for u in params.layers[-1].channels}
    assert len(books) == 1
    names = [n for n, _ in named_parameters(params)]
    assert len(names) == len(set(names))
    assert sum("codebook" in n and "layers.1" in n for n in names) == 1


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="divisible"):
        small_sc_config(embedding_dim=9, channels_per_layer=[2, 2])
    with pytest.raises(ConfigError, match="channels_per_layer"):
        small_sc_config(channels_per_layer=[2])
    with pytest.raises(ConfigError, match=re.escape(
            "channels_per_layer must hold integers, got [2.7, 2.2]")):
        small_sc_config(channels_per_layer=[2.7, 2.2])
    assert small_sc_config(channels_per_layer=[np.int64(2), 2]).channels_per_layer == [2, 2]
    with pytest.raises(ConfigError, match="variant"):
        small_sc_config(variant="XX")
    with pytest.raises(ConfigError, match="sc_last_extraction"):
        small_sc_config(sc_last_extraction="sampling")


def _digest(params):
    h = hashlib.sha256()
    for name, t in named_parameters(params):
        h.update(f"{name} {t.data.shape}\n".encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


# Recorded from init_params before it and load_checkpoint shared one walk.
# The draws are generator normals times a scale, no BLAS product, so the
# bytes are the same on every kernel.
@pytest.mark.parametrize("config, digest", [
    (small_sc_config(), "066043108b90de249dec222ac892c2bd1c02af719e2407864c08c243f753af6d"),
    (small_mc_config(mc_last_layer_heads=3),
     "583cec5870adc5c47df04c720f63ecb6ee8924d08922d33b6e7b334d26725575"),
    (small_sc_config(tie_output_embeddings=True),
     "05fcc56e3683157a4dfb27e0570be43bc69db72167c8d1aabc150f16214065eb"),
], ids=["SC", "MC3", "tied"])
def test_init_params_bytes_pinned(config, digest):
    assert _digest(init_params(config, seed=13)) == digest


def test_mc_last_layer_head_count_not_divisibility_checked():
    cfg = small_mc_config(mc_last_layer_heads=5)  # 8 not divisible by 5
    params = init_params(cfg, seed=18)
    state = forward([1, 2], cfg, params, rng_seed=0)
    assert len(state.contexts) == 5


def test_forward_empty_basket_error():
    cfg = small_sc_config()
    with pytest.raises(ConfigError, match=r"^embed_inputs: expected a non-empty id sequence, "
                                          r"got shape \(0,\)$"):
        forward([], cfg, init_params(cfg, seed=0))


def test_tied_output_embeddings_share_table():
    cfg = small_sc_config(tie_output_embeddings=True, use_positions=False)
    params = init_params(cfg, seed=19)
    assert params.output_embeddings is None
    names = [n for n, _ in named_parameters(params)]
    assert "output_embeddings" not in names
    loss, _ = batch_loss([[1, 2, 3]], cfg, params)
    T.backward(loss)
    # Gradient reaches the single table through both the input and the
    # scoring path.
    assert np.abs(params.item_embeddings.grad).sum() > 0


def _heads(rng, count, d=8, patterns=6):
    """count equal-shaped units sharing the first one's codebook."""
    first = vqa.init_vqa_params(rng, d, d, patterns)
    return [first] + [dataclasses.replace(vqa.init_vqa_params(rng, d, d, patterns),
                                          codebook=first.codebook)
                      for _ in range(count - 1)]


def _head_loss(state):
    """A scalar whose upstream gradient differs entry by entry."""
    return T.add(T.mean(C.log(C.softmax(state.contexts))), T.mean(state.pattern_logprob))


@pytest.mark.parametrize("heads", [1, 2, 5])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["basket", "batch"])
@pytest.mark.parametrize("dropout", [False, True], ids=["plain", "dropout"])
def test_stacked_heads_equal_per_head_units(heads, lead, dropout):
    rng = np.random.default_rng(heads)
    units = _heads(rng, heads)
    x = Tensor(rng.normal(size=lead + (5, 8)), requires_grad=True)
    uniforms = rng.random((heads,) + lead + (5, 6))
    keep = None
    if dropout:
        keep = rng.random(uniforms.shape) >= 0.4
        keep[..., 0] = True
    strategy = vqa.ExtractionStrategy(vqa.SAMPLING, 0.7)
    stacked = vqa.unit_forward(x, units, strategy, keep, uniforms)
    T.backward(_head_loss(stacked))
    stacked_grads = [x.grad] + [t.grad for u in units for _, t in u.named("u")]
    for t in [x] + [t for u in units for _, t in u.named("u")]:
        t.grad = None

    total = None
    for h, unit in enumerate(units):
        alone = vqa.unit_forward(x, unit, strategy, None if keep is None else keep[h],
                                 uniforms[h])
        view = stacked.head(h)
        for got in (stacked.contexts.data[h], view.contexts.data):
            assert np.array_equal(got, alone.contexts.data)
        assert np.array_equal(view.prefix_attention.data, alone.prefix_attention.data)
        assert np.array_equal(view.context_attention.data, alone.context_attention.data)
        assert np.array_equal(view.pattern_index, alone.pattern_index)
        assert np.array_equal(view.pattern_logprob.data, alone.pattern_logprob.data)
        loss = T.scale(_head_loss(alone), 1.0 / heads)
        total = loss if total is None else T.add(total, loss)
    T.backward(total)
    # Head by head, the same sum in another order: equal up to rounding.
    loop_grads = [x.grad] + [t.grad for u in units for _, t in u.named("u")]
    for got, want in zip(stacked_grads, loop_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stacked_heads_need_one_codebook():
    rng = np.random.default_rng(0)
    units = [vqa.init_vqa_params(rng, 8, 8, 6) for _ in range(2)]
    with pytest.raises(ValueError, match="share one codebook"):
        vqa.unit_forward(Tensor(rng.normal(size=(3, 8))), units,
                         vqa.ExtractionStrategy(vqa.SAMPLING), uniforms=rng.random((2, 3, 6)))


def _draws_channel_by_channel(lengths, config, rng, rate):
    """draw_noise's draws made channel by channel into separate arrays.

    Returns one (keep masks, uniforms, merge draws) per layer, the first two
    a list per channel, each entry None when the layer does not draw it.
    """
    batch, n = len(lengths), max(lengths)
    p, d = config.num_patterns, config.embedding_dim
    layers = []
    for channels, merges, kind in layer_channel_plan(config):
        layers.append(([np.ones((batch, n, p)) if rate > 0 else None for _ in range(channels)],
                       [np.full((batch, n, p), 0.5) if kind == "sampling" else None
                        for _ in range(channels)],
                       np.ones((batch, n, d)) if merges and rate > 0 else None))
    for b, steps in enumerate(lengths):
        for keeps, uniforms, merge in layers:
            for keep, uniform in zip(keeps, uniforms):
                for draws, width in ((keep, p), (uniform, p)):
                    if draws is not None:
                        draws[b, :steps] = rng.random((steps, width))
            if merge is not None:
                merge[b, :steps] = rng.random((steps, d))
    for keeps, _, _ in layers:
        for c, draws in enumerate(keeps):
            if draws is not None:
                keeps[c] = draws >= rate
                keeps[c][~keeps[c].any(axis=-1)] = True
    return layers


@pytest.mark.parametrize("variant, rate", [("MC", 0.0), ("MC", 0.5), ("SC", 0.5)])
def test_draw_noise_equals_channel_by_channel_draws(variant, rate):
    cfg = (small_mc_config if variant == "MC" else small_sc_config)(
        mc_last_layer_heads=5, channels_per_layer=[4, 2])
    lengths = [3, 7, 1, 5]
    noise = draw_noise(lengths, cfg, np.random.default_rng(9), rate)
    want = _draws_channel_by_channel(lengths, cfg, np.random.default_rng(9), rate)
    for layer, (keeps, uniforms, merge) in zip(noise, want):
        for c, (keep, uniform) in enumerate(zip(keeps, uniforms)):
            for got, expected in ((layer.keep_masks, keep), (layer.uniforms, uniform)):
                assert (got is None) == (expected is None)
                if expected is not None:
                    assert np.array_equal(got[c], expected)
        assert (layer.merge_uniforms is None) == (merge is None)
        if merge is not None:
            assert np.array_equal(layer.merge_uniforms, merge)


@pytest.mark.parametrize("variant, rate", [("MC", 0.0), ("MC", 0.5), ("SC", 0.5), ("SC", 0.0)])
def test_draw_noise_into_buckets_equals_per_basket_draws(variant, rate):
    # Buckets in any order, each over its baskets in any order: every bucket
    # holds its baskets' rows of the per-(basket, array) draws, padded to its
    # own longest basket, and the generator ends where the loop leaves it.
    cfg = (small_mc_config if variant == "MC" else small_sc_config)(
        mc_last_layer_heads=5, channels_per_layer=[4, 2])
    lengths = [3, 7, 1, 5, 2, 7]
    buckets = [np.array([4, 0]), np.array([5, 3, 1]), np.array([2])]
    rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
    got = draw_noise(lengths, cfg, rng, rate, buckets)
    want = _draws_channel_by_channel(lengths, cfg, oracle_rng, rate)
    assert rng.random() == oracle_rng.random()
    assert len(got) == len(buckets)
    for noise, index in zip(got, buckets):
        n = max(lengths[b] for b in index)
        for layer, (keeps, uniforms, merge) in zip(noise, want):
            for part, whole in ((layer.keep_masks, keeps), (layer.uniforms, uniforms)):
                assert (part is None) == (whole[0] is None)
                if part is not None:
                    assert part.tobytes() == np.stack(whole)[:, index, :n].tobytes()
            assert (layer.merge_uniforms is None) == (merge is None)
            if merge is not None:
                assert layer.merge_uniforms.tobytes() == merge[index, :n].tobytes()

