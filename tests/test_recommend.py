"""Scoring functions and top-k recommendation contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npa import model as npa_model
from npa.errors import ConfigError
from npa.model import init_params
from npa.recommend import (MEAN_AGGREGATE, rank_items, recommend_topk,
                           score_contexts, score_fesf, score_mean, score_softmax)

from conftest import small_mc_config, small_sc_config


def _rank_items_full_sort(scores, exclude=(), k=None):
    """Reference ranking: one lexsort over every item."""
    s = np.asarray(scores, dtype=np.float64).copy()
    exclude = np.asarray(sorted(set(int(i) for i in exclude)), dtype=np.int64)
    if exclude.size:
        s[exclude] = -np.inf
    order = np.lexsort((np.arange(s.size), -s))
    order = order[np.isfinite(s[order])]
    if k is not None:
        order = order[:k]
    return order.tolist()


def _fesf_item_rows(contexts, embeddings, temperature=1.0):
    """Reference fesf on the (items, contexts) logit layout."""
    logits = (embeddings @ np.atleast_2d(contexts).T) / temperature
    m = logits.max(axis=1, keepdims=True)
    return np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]


def _mean_per_context(contexts, embeddings):
    """Reference mean aggregate: one softmax per context, then the average."""
    return np.mean([score_softmax(c, embeddings).scores for c in np.atleast_2d(contexts)],
                   axis=0)


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


def test_rank_items_tie_at_k_boundary_keeps_lower_id():
    # Items 4 and 2 tie for places k and k+1; partitioning alone could keep
    # either, the full sort keeps the lower id.
    scores = np.array([9.0, 1.0, 5.0, 7.0, 5.0, 0.0])
    assert rank_items(scores, k=3) == [0, 3, 2]
    assert rank_items(scores, exclude=[3], k=2) == [0, 2]
    assert rank_items(scores, k=3) == _rank_items_full_sort(scores, k=3)


_score_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


def test_rank_items_k_zero_is_empty_and_negative_k_fails():
    scores = np.array([1.0, 3.0, 2.0])
    assert rank_items(scores, k=0) == []
    with pytest.raises(ConfigError, match=r"^rank_items: k must be >= 0, got -1$"):
        rank_items(scores, k=-1)


@pytest.mark.parametrize("bad", [-1, 4, 7])
def test_rank_items_rejects_excluded_ids_out_of_range(bad):
    # numpy would wrap -1 onto the last item and fail on 4 with a bare IndexError.
    with pytest.raises(ConfigError, match=rf"^rank_items: excluded item id {bad} "
                                          r"out of range \[0, 4\)$"):
        rank_items([0.1, 0.5, 0.9, 0.3], exclude=[2, bad], k=4)
    assert rank_items([0.1, 0.5, 0.9, 0.3], exclude=[2], k=4) == [1, 3, 0]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_rank_items_matches_full_sort(data):
    scores = np.array(data.draw(st.lists(_score_values, min_size=1, max_size=40)))
    n = scores.size
    exclude = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 3))
    k = data.draw(st.one_of(st.none(), st.integers(1, n + 3)))
    before = scores.copy()
    assert rank_items(scores, exclude=exclude, k=k) == _rank_items_full_sort(scores, exclude, k)
    np.testing.assert_array_equal(scores, before)


@pytest.mark.parametrize("temperature", [1e-3, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("heads", [1, 2, 5])
def test_fesf_matches_item_rows_oracle(heads, temperature):
    rng = np.random.default_rng(heads * 10 + int(temperature * 7))
    e = rng.normal(size=(300, 16))
    ctxs = rng.normal(size=(heads, 16))
    got = score_fesf(ctxs, e, temperature).scores
    expected = _fesf_item_rows(ctxs, e, temperature)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert np.array_equal(np.argsort(-got, kind="stable"),
                          np.argsort(-expected, kind="stable"))


@pytest.mark.parametrize("heads", [1, 2, 5])
def test_mean_matches_per_context_oracle(heads):
    rng = np.random.default_rng(20 + heads)
    e = rng.normal(size=(300, 16))
    ctxs = rng.normal(size=(heads, 16))
    got = score_mean(ctxs, e).scores
    expected = _mean_per_context(ctxs, e)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert np.array_equal(np.argsort(-got, kind="stable"),
                          np.argsort(-expected, kind="stable"))


@pytest.mark.parametrize("cfg", [small_sc_config(), small_mc_config(mc_last_layer_heads=3)],
                         ids=["sc", "mc"])
def test_recommend_scores_are_the_scored_items(cfg):
    params = init_params(cfg, seed=6)
    basket = [2, 7, 4]
    out = recommend_topk(basket, cfg, params, 8, rng_seed=3)
    state = npa_model.forward(basket, cfg, params, rng_seed=3)
    final = np.stack([ctx.data[-1] for ctx in state.contexts])
    kind = "softmax" if final.shape[0] == 1 else "fesf"
    vec = score_contexts(final, npa_model.output_embeddings(params).data, kind)
    assert out.scores == vec.scores[out.item_ids].tolist()
    assert all(type(s) is float for s in out.scores)


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


def test_recommend_rejects_repeated_id():
    cfg = small_sc_config()
    params = init_params(cfg, seed=4)
    with pytest.raises(ConfigError, match=r"^recommend_topk: basket 3,3,1: item id 3 repeats$"):
        recommend_topk([3, 3, 1], cfg, params, 3)


def test_score_contexts_default_kind():
    rng = np.random.default_rng(12)
    e = rng.normal(size=(7, 4))
    one, two = rng.normal(size=(1, 4)), rng.normal(size=(2, 4))
    np.testing.assert_array_equal(score_contexts(one, e).scores, score_softmax(one[0], e).scores)
    np.testing.assert_array_equal(score_contexts(two, e).scores, score_fesf(two, e).scores)


@pytest.mark.parametrize("call, message", [
    (lambda e: score_softmax(np.zeros(3), e),
     r"score_softmax: embeddings \(7, 4\) vs context \(3,\)"),
    (lambda e: score_mean(np.zeros((2, 3)), e),
     r"score_mean: embeddings \(7, 4\) vs contexts \(2, 3\)"),
    (lambda e: score_fesf(np.zeros((2, 3)), e),
     r"score_fesf: embeddings \(7, 4\) vs contexts \(2, 3\)"),
    (lambda e: score_contexts(np.zeros((2, 1, 4)), e),
     r"expected one or more context vectors, got shape \(2, 1, 4\)"),
    (lambda e: score_contexts(np.zeros((0, 4)), e),
     r"expected one or more context vectors, got shape \(0, 4\)"),
], ids=["softmax", "mean", "fesf", "contexts_rank", "no_contexts"])
def test_score_shape_errors(call, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        call(np.zeros((7, 4)))


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
    for temperature in (0.0, float("nan"), -float("inf")):
        with pytest.raises(ConfigError, match="must be positive"):
            score_fesf(rng.normal(size=(2, 3)), e, temperature=temperature)
    with pytest.raises(ConfigError, match="must be finite"):
        score_fesf(rng.normal(size=(2, 3)), e, temperature=float("inf"))


def test_recommend_unseeded_mc_repeats():
    # No seed means the fixed seed 0, so unseeded MC serving is repeatable.
    cfg = small_mc_config(mc_last_layer_heads=3)
    params = init_params(cfg, seed=4)
    a = recommend_topk([1, 5, 9], cfg, params, k=6)
    b = recommend_topk([1, 5, 9], cfg, params, k=6)
    assert a.item_ids == b.item_ids and a.scores == b.scores


def test_recommend_rejects_unknown_scoring_kind():
    cfg = small_mc_config()
    params = init_params(cfg, seed=5)
    with pytest.raises(ConfigError, match=r"^unknown scoring kind 'median'$"):
        recommend_topk([1, 5], cfg, params, k=3, scoring_kind="median")
