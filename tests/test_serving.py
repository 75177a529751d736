"""A served query recomputed in plain numpy from the weights, and the basket
checks one query makes.

The oracle repeats the library's arithmetic operation for operation, head
by head and channel by channel, so ids and scores must be equal to the
byte: a graph-free query may skip bookkeeping, never arithmetic.
"""

import numpy as np
import pytest

import npa.model
from npa.errors import ConfigError
from npa.model import init_params, layer_channel_plan, output_embeddings
from npa.recommend import FESF, SOFTMAX, recommend_topk

from conftest import small_mc_config, small_sc_config


def _softmax(x):
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _unit(x, w, kind, uniforms=None, temperature=1.0):
    """One unit's (steps, width) contexts over every prefix of x."""
    n = x.shape[0]
    c = w.codebook.data
    q, k, v = x @ w.w_query.data.T, x @ w.w_key.data.T, x @ w.w_value.data.T
    a = _softmax((q @ (c @ w.w_pattern_key.data.T).T) * (1.0 / np.sqrt(q.shape[1])))
    abar = (np.tril(np.ones((n, n))) / np.arange(1, n + 1)[:, None]) @ a
    if kind == "weighted_average":
        z = abar @ c
    else:  # Gumbel-max over the log beliefs
        with np.errstate(divide="ignore"):
            perturbed = np.log(abar) / temperature
        z = c[np.argmax(perturbed - np.log(-np.log(uniforms)), axis=1)]
    rho = z @ w.w_context_query.data.T
    logits = (rho @ k.T) * (1.0 / np.sqrt(rho.shape[1]))
    return _softmax(np.where(np.tril(np.ones((n, n), dtype=bool)), logits, -np.inf)) @ v


def _oracle(basket, cfg, params, k, seed, kind):
    """(ids, scores) of the top k non-members for the basket's last step."""
    n = len(basket)
    x = params.item_embeddings.data[basket] + params.positional_embeddings.data[:n]
    prev = cur = x
    for (channels, merges, extraction), layer in zip(layer_channel_plan(cfg), params.layers):
        if merges:
            parts = [_unit(cur, unit, extraction) for unit in layer.channels]
            merged = np.concatenate(parts, axis=1) @ layer.merge.data.T
            cur, prev = merged + prev, merged
            contexts = merged[-1:]
        else:
            p = cfg.num_patterns
            uniforms = np.random.default_rng(seed).random(channels * n * p)
            uniforms = uniforms.reshape(channels, n, p)
            contexts = np.array([_unit(cur, unit, extraction, uniforms[h],
                                       cfg.gumbel_temperature)[-1]
                                 for h, unit in enumerate(layer.channels)])
    e = output_embeddings(params).data
    if kind == SOFTMAX:
        scores = _softmax(e @ contexts[0])
    else:
        logits = contexts @ e.T.copy()
        m = logits.max(axis=0)
        scores = np.log(np.exp(logits - m).sum(axis=0)) + m
    order = [i for i in np.argsort(-scores, kind="stable").tolist() if i not in basket][:k]
    return order, scores[order]


@pytest.mark.parametrize("cfg, kind", [
    (small_mc_config(mc_last_layer_heads=3), FESF),
    (small_sc_config(), SOFTMAX),
], ids=["mc_fesf", "sc_softmax"])
@pytest.mark.parametrize("basket", [[7], [3, 1, 2, 9, 7], [0, 19, 4, 11, 6, 15, 8, 2]],
                         ids=["one", "five", "eight"])
def test_recommend_topk_equals_plain_numpy_oracle(cfg, kind, basket):
    params = init_params(cfg, seed=51)
    for seed in (0, 1, 2):
        rec = recommend_topk(basket, cfg, params, k=6, scoring_kind=kind, rng_seed=seed)
        ids, scores = _oracle(basket, cfg, params, 6, seed, kind)
        assert rec.item_ids == ids
        assert np.array(rec.scores).tobytes() == scores.tobytes()


def test_recommend_topk_checks_its_basket_once(monkeypatch):
    calls = []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append((name, args[0]))
            return real(*args, **kwargs)
        return counted

    for name in ("_item_ids", "check_baskets", "embed_inputs"):
        monkeypatch.setattr(npa.model, name, spy(name, getattr(npa.model, name)))
    cfg = small_mc_config(mc_last_layer_heads=3)
    recommend_topk([3, 1, 2, 9, 7], cfg, init_params(cfg, seed=52), k=4, rng_seed=1)
    assert [name for name, _ in calls] == ["_item_ids", "check_baskets", "embed_inputs"]
    # The embedding gets the ids as checked, so it does not check them again.
    assert isinstance(calls[-1][1], npa.model._Checked)


@pytest.mark.parametrize("basket, message", [
    ([], "recommend_topk: empty basket"),
    (list(range(9)), "recommend_topk: basket 0,1,2,3,4,5,6,7,8: sequence of 9 items "
                     "exceeds max_sequence_length 8"),
    ([3, 20, 1], r"recommend_topk: basket 3,20,1: item id 20 out of range \[0, 20\)"),
    ([3, -1, 1], r"recommend_topk: basket 3,-1,1: item id -1 out of range \[0, 20\)"),
    ([3, 5, 3, 5], "recommend_topk: basket 3,5,3,5: item id 3 repeats"),
    ([3.0, 2.5], r"recommend_topk: basket 3\.0,2\.5: item id 2\.5 is not an integer"),
    ([[1, 2]], r"recommend_topk: expected a 1-d id sequence, got shape \(1, 2\)"),
    ([2 ** 63], "recommend_topk: basket 9223372036854775808: item id 9223372036854775808 "
                "is outside int64's range"),
    ([1, [2, 3]], r"recommend_topk: basket 1,\[2, 3\]: expected a 1-d id sequence, "
                  "got a ragged one"),
], ids=["empty", "too_long", "above_range", "negative", "repeat", "fraction", "two_d",
        "beyond_int64", "ragged"])
def test_recommend_topk_basket_errors(basket, message):
    cfg = small_sc_config()
    with pytest.raises(ConfigError, match=f"^{message}$"):
        recommend_topk(basket, cfg, init_params(cfg, seed=53), k=3)
