"""Arrays built from weights alone, kept between graph-free queries
(``tensor._kept``): built once, never stale, never outliving their weights,
and never kept while a graph is recorded."""

import copy
import gc
import weakref

import numpy as np
import pytest

import npa.recommend
from npa import tensor as T
from npa.model import forward, init_params, named_parameters, output_embeddings
from npa.optim import AdamW
from npa.recommend import recommend_topk
from npa.training import TrainConfig, batch_loss, train

from conftest import small_mc_config, small_sc_config

BASKETS = [[3, 1, 2, 9, 7], [4, 11], [0, 5, 6, 8, 10, 12, 13]]


def _serve(cfg, params, queries=3):
    """(ids, scores) of the first ``queries`` queries, over BASKETS in turn."""
    out = []
    for q in range(queries):
        rec = recommend_topk(BASKETS[q % len(BASKETS)], cfg, params, k=6, rng_seed=q)
        out.append((rec.item_ids, rec.scores))
    return out


def _mc():
    cfg = small_mc_config(mc_last_layer_heads=3)
    return cfg, init_params(cfg, seed=40)


def test_served_queries_build_each_kept_array_once(monkeypatch):
    builds = []
    real = T._kept

    def spy(key, sources, build):
        def counted():
            builds.append((key, *map(id, sources)))
            return build()
        return real(key, sources, counted)

    monkeypatch.setattr(T, "_kept", spy)
    monkeypatch.setattr(npa.recommend, "_kept", spy)
    cfg, params = _mc()
    _serve(cfg, params, queries=50)
    assert builds
    assert len(builds) == len(set(builds))
    assert {b[0] for b in builds} == {"transpose", "stack", ("pattern_keys", 0)}


@pytest.mark.parametrize("target", ["output_table", "codebook", "head_projection"])
def test_in_place_write_after_serving_raises(target):
    cfg, params = _mc()
    _serve(cfg, params)
    heads = params.layers[-1].channels
    array = {"output_table": output_embeddings(params).data,
             "codebook": heads[0].codebook.data,
             "head_projection": heads[1].w_value.data}[target]
    with pytest.raises(ValueError, match="read-only"):
        array[0, 0] += 1.0


def test_adamw_step_after_serving_serves_the_updated_weights():
    cfg, params = _mc()
    _serve(cfg, params)
    optimizer = AdamW(named_parameters(params), lr=0.05)
    loss, _ = batch_loss([BASKETS[0], BASKETS[2]], cfg, params, rng=np.random.default_rng(1))
    T.backward(loss)
    optimizer.step()
    assert _serve(cfg, params) == _serve(cfg, copy.deepcopy(params))


def test_kept_arrays_go_with_their_weights():
    cfg, params = _mc()
    _serve(cfg, params)
    emb = output_embeddings(params).data
    kept = weakref.ref(T._kept_arrays[("transpose", id(emb))][1])
    del params, emb
    gc.collect()
    assert kept() is None


def test_two_parameter_sets_served_alternately_keep_their_own_answers():
    cfg = small_mc_config(mc_last_layer_heads=3)
    sets = [init_params(cfg, seed=41), init_params(cfg, seed=42)]
    expected = [_serve(cfg, copy.deepcopy(params)) for params in sets]
    assert expected[0] != expected[1]
    for _ in range(3):
        for params, answers in zip(sets, expected):
            assert _serve(cfg, params) == answers


@pytest.mark.parametrize("cfg", [small_sc_config(), small_mc_config(mc_last_layer_heads=3)],
                         ids=["sc", "mc"])
def test_recording_passes_keep_nothing_and_leave_weights_writable(cfg):
    params = init_params(cfg, seed=43)
    train(BASKETS, cfg, params, TrainConfig(epochs=1, batch_size=2, seed=2))
    loss, _ = batch_loss(BASKETS, cfg, params, rng=np.random.default_rng(3))
    T.backward(loss)
    forward(BASKETS[0], cfg, params, rng_seed=4)
    # Central differences in place, as the gradient oracle perturbs weights.
    for _, p in named_parameters(params):
        orig = p.data[0, 0]
        p.data[0, 0] = orig + 1e-5
        batch_loss(BASKETS[:1], cfg, params, rng=np.random.default_rng(5))
        p.data[0, 0] = orig
    weights = {id(p.data) for _, p in named_parameters(params)}
    assert not any(weights.intersection(ident[1:]) for ident in T._kept_arrays)
    assert all(p.data.flags.writeable for _, p in named_parameters(params))
