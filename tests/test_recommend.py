"""Scoring functions and top-k recommendation contracts."""

import numpy as np
import pytest

from npa.errors import ConfigError
from npa.model import init_params
from npa.recommend import (MEAN_AGGREGATE, rank_items,
                           recommend_topk, score_fesf, score_mean, score_softmax)

from conftest import small_mc_config, small_sc_config


def test_softmax_zero_context_uniform():
    e = np.random.default_rng(0).normal(size=(7, 4))
    out = score_softmax(np.zeros(4), e)
    np.testing.assert_allclose(out.scores, np.full(7, 1 / 7), atol=1e-12)


def test_softmax_orthonormal_embeddings_peak():
    e = np.eye(5)
    out = score_softmax(e[3], e)
    assert np.argmax(out.scores) == 3
    assert (out.scores[3] > np.delete(out.scores, 3)).all()


def test_softmax_matches_direct_oracle():
    rng = np.random.default_rng(1)
    e = rng.normal(size=(5, 6))
    c = rng.normal(size=6)
    out = score_softmax(c, e)
    logits = e @ c
    expected = np.exp(logits) / np.exp(logits).sum()
    np.testing.assert_allclose(out.scores, expected, atol=1e-12)
    np.testing.assert_allclose(out.scores.sum(), 1.0, atol=1e-9)


def test_softmax_shift_invariance():
    # Adding a constant to every logit leaves the probabilities unchanged.
    rng = np.random.default_rng(2)
    e = rng.normal(size=(6, 4))
    c = rng.normal(size=4)
    base = score_softmax(c, e).scores
    logits = e @ c + 7.3
    manual = np.exp(logits - logits.max())
    manual /= manual.sum()
    np.testing.assert_allclose(base, manual, atol=1e-9)


def test_fesf_single_context_t1_is_dot_product():
    rng = np.random.default_rng(3)
    e = rng.normal(size=(6, 4))
    c = rng.normal(size=4)
    out = score_fesf(c, e, temperature=1.0)
    np.testing.assert_allclose(out.scores, e @ c, atol=1e-12)


def test_fesf_duplicate_context_shifts_by_log2():
    rng = np.random.default_rng(4)
    e = rng.normal(size=(8, 4))
    c = rng.normal(size=4)
    single = score_fesf(c, e).scores
    double = score_fesf(np.stack([c, c]), e).scores
    np.testing.assert_allclose(double, single + np.log(2), atol=1e-12)
    assert np.array_equal(np.argsort(-double), np.argsort(-single))


def test_fesf_low_temperature_is_max_pool():
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = rng.normal(size=(12, 4))
        ctxs = rng.normal(size=(3, 4))
        fesf = score_fesf(ctxs, e, temperature=1e-3).scores
        maxpool = (e @ ctxs.T).max(axis=1)
        assert np.array_equal(np.argsort(-fesf, kind="stable"),
                              np.argsort(-maxpool, kind="stable"))


def test_fesf_single_context_ranking_equals_softmax_ranking():
    rng = np.random.default_rng(6)
    e = rng.normal(size=(9, 5))
    c = rng.normal(size=5)
    soft = score_softmax(c, e).scores
    fesf = score_fesf(c, e).scores
    assert np.array_equal(np.argsort(-soft, kind="stable"),
                          np.argsort(-fesf, kind="stable"))


def test_mean_single_and_identical_contexts():
    rng = np.random.default_rng(7)
    e = rng.normal(size=(6, 4))
    c = rng.normal(size=4)
    np.testing.assert_allclose(score_mean(c, e).scores, score_softmax(c, e).scores,
                               atol=1e-15)
    np.testing.assert_allclose(score_mean(np.stack([c, c]), e).scores,
                               score_softmax(c, e).scores, atol=1e-15)


def test_mean_matches_averaging_oracle():
    rng = np.random.default_rng(8)
    e = rng.normal(size=(6, 4))
    ctxs = rng.normal(size=(2, 4))
    got = score_mean(ctxs, e).scores
    expected = (score_softmax(ctxs[0], e).scores + score_softmax(ctxs[1], e).scores) / 2
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_rank_items_ties_break_low_id():
    ranked = rank_items(np.array([1.0, 2.0, 2.0, 0.5]))
    assert ranked == [1, 2, 0, 3]


def test_recommend_full_ranking_excludes_basket():
    cfg = small_sc_config()
    params = init_params(cfg, seed=0)
    basket = [3, 1, 2]
    k = cfg.num_items - len(basket)
    out = recommend_topk(basket, cfg, params, k)
    assert len(out.item_ids) == k
    assert set(out.item_ids) == set(range(cfg.num_items)) - set(basket)
    assert all(a >= b for a, b in zip(out.scores, out.scores[1:]))


def test_recommend_never_returns_basket_members():
    cfg = small_sc_config(use_positions=False)
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(200):
        size = int(rng.integers(1, 6))
        basket = rng.choice(cfg.num_items, size=size, replace=False).tolist()
        out = recommend_topk(basket, cfg, params, 5)
        assert not set(out.item_ids) & set(basket)


def test_recommend_deterministic_with_seed_mc():
    cfg = small_mc_config(mc_last_layer_heads=3)
    params = init_params(cfg, seed=3)
    a = recommend_topk([1, 2, 3], cfg, params, 5, rng_seed=9)
    b = recommend_topk([1, 2, 3], cfg, params, 5, rng_seed=9)
    assert a.item_ids == b.item_ids and a.scores == b.scores


def test_recommend_k_validation_and_empty_basket():
    cfg = small_sc_config()
    params = init_params(cfg, seed=4)
    with pytest.raises(ConfigError, match="empty basket"):
        recommend_topk([], cfg, params, 3)
    with pytest.raises(ConfigError, match="k must be"):
        recommend_topk([1, 2], cfg, params, 19)


def test_recommend_mc_defaults_to_fesf():
    cfg = small_mc_config(mc_last_layer_heads=2)
    params = init_params(cfg, seed=5)
    out = recommend_topk([4, 5], cfg, params, 3, rng_seed=1)
    assert len(out.item_ids) == 3
    out2 = recommend_topk([4, 5], cfg, params, 3, scoring_kind=MEAN_AGGREGATE, rng_seed=1)
    assert len(out2.item_ids) == 3


def test_score_kind_validation():
    rng = np.random.default_rng(9)
    e = rng.normal(size=(5, 3))
    with pytest.raises(ConfigError):
        score_fesf(rng.normal(size=(2, 3)), e, temperature=0.0)


def test_recommend_unseeded_mc_repeats():
    # No seed means the fixed seed 0, so unseeded MC serving is repeatable.
    cfg = small_mc_config(mc_last_layer_heads=3)
    params = init_params(cfg, seed=4)
    a = recommend_topk([1, 5, 9], cfg, params, k=6)
    b = recommend_topk([1, 5, 9], cfg, params, k=6)
    assert a.item_ids == b.item_ids and a.scores == b.scores
