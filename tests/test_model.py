"""Model composition: embedding, layers, variants, causality, determinism."""

import numpy as np
import pytest

from npa import tensor as T
from npa import vqa
from npa.errors import ConfigError
from npa.model import (embed_inputs, forward, forward_layer,
                       init_params, named_parameters, trainable_parameters)
from npa.tensor import Tensor
from npa.training import batch_loss

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
    without = embed_inputs([4, 2], cfg, params, use_positions=False).data
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


def test_forward_layer_single_channel_identity_merge():
    cfg = small_sc_config(num_layers=1, channels_per_layer=[1])
    params = init_params(cfg, seed=2)
    layer = params.layers[0]
    layer.merge.data = np.eye(cfg.embedding_dim)
    x = Tensor(np.random.default_rng(3).normal(size=(4, 8)))
    strategy = vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE)
    merged, states = forward_layer(x, layer, strategy)
    np.testing.assert_array_equal(merged.data, states[0].contexts.data)


def test_forward_layer_causal_noise_after_t():
    cfg = small_sc_config(num_layers=1, channels_per_layer=[2])
    params = init_params(cfg, seed=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 8))
    strategy = vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE)
    base, _ = forward_layer(Tensor(x), params.layers[0], strategy)
    x2 = x.copy()
    x2[3:] = rng.normal(size=(2, 8)) * 10
    noisy, _ = forward_layer(Tensor(x2), params.layers[0], strategy)
    np.testing.assert_array_equal(base.data[:3], noisy.data[:3])


def test_forward_layer_matches_per_channel_oracle():
    cfg = small_sc_config(num_layers=1, channels_per_layer=[2])
    params = init_params(cfg, seed=6)
    layer = params.layers[0]
    x = Tensor(np.random.default_rng(7).normal(size=(4, 8)))
    strategy = vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE)
    merged, _ = forward_layer(x, layer, strategy)
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
    books = {id(u.codebook.entries) for u in params.layers[-1].channels}
    assert len(books) == 1
    names = [n for n, _ in named_parameters(params)]
    assert len(names) == len(set(names))
    assert sum("codebook" in n and "layers.1" in n for n in names) == 1


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="divisible"):
        small_sc_config(embedding_dim=9, channels_per_layer=[2, 2])
    with pytest.raises(ConfigError, match="channels_per_layer"):
        small_sc_config(channels_per_layer=[2])
    with pytest.raises(ConfigError, match="variant"):
        small_sc_config(variant="XX")
    with pytest.raises(ConfigError, match="sc_last_extraction"):
        small_sc_config(sc_last_extraction="sampling")


def test_mc_last_layer_head_count_not_divisibility_checked():
    cfg = small_mc_config(mc_last_layer_heads=5)  # 8 not divisible by 5
    params = init_params(cfg, seed=18)
    state = forward([1, 2], cfg, params, rng_seed=0)
    assert len(state.contexts) == 5


def test_forward_empty_basket_error():
    cfg = small_sc_config()
    with pytest.raises(ConfigError, match="at least one item"):
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
