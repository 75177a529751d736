"""Graph-free mode: the same values as a recording pass, and no graph."""

import contextlib

import numpy as np
import pytest

import npa.recommend
import npa.training
from npa import tensor as T
from npa.model import draw_noise, forward, init_params, named_parameters
from npa.recommend import FESF, MEAN_AGGREGATE, export_attention, recommend_topk
from npa.tensor import Tensor, no_grad
from npa.training import TrainConfig, batch_loss, train

from conftest import small_mc_config, small_sc_config

BASKET = [3, 1, 2, 9, 7]


@pytest.fixture()
def made(monkeypatch):
    """Every tensor constructed while the test runs, in order."""
    tensors = []
    init = Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tensors.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording)
    return tensors


def _recording(monkeypatch, module):
    """Make ``module`` run its forward pass with the graph recorded."""
    monkeypatch.setattr(module, "no_grad", contextlib.nullcontext)


@pytest.mark.parametrize("cfg, scoring", [
    (small_sc_config(), None),
    (small_mc_config(mc_last_layer_heads=3), FESF),
    (small_mc_config(mc_last_layer_heads=3), MEAN_AGGREGATE),
    (small_mc_config(mc_last_layer_heads=3), None),
], ids=["sc", "mc_fesf", "mc_mean_aggregate", "mc_default"])
def test_recommend_topk_bit_identical_to_recording_pass(monkeypatch, cfg, scoring):
    params = init_params(cfg, seed=31)
    free = recommend_topk(BASKET, cfg, params, k=8, scoring_kind=scoring, rng_seed=5)
    _recording(monkeypatch, npa.recommend)
    recorded = recommend_topk(BASKET, cfg, params, k=8, scoring_kind=scoring, rng_seed=5)
    assert free.item_ids == recorded.item_ids
    assert free.scores == recorded.scores


@pytest.mark.parametrize("cfg", [small_sc_config(), small_mc_config(mc_last_layer_heads=3)],
                         ids=["sc", "mc"])
def test_export_attention_bit_identical_to_recording_pass(tmp_path, monkeypatch, cfg):
    params = init_params(cfg, seed=32)
    free, recorded = tmp_path / "free.txt", tmp_path / "recorded.txt"
    export_attention(BASKET, cfg, params, free, k=6, rng_seed=3)
    _recording(monkeypatch, npa.recommend)
    export_attention(BASKET, cfg, params, recorded, k=6, rng_seed=3)
    assert free.read_bytes() == recorded.read_bytes()


def test_forward_inside_no_grad_makes_only_graph_free_tensors(made):
    cfg = small_mc_config(mc_last_layer_heads=3, dropout_rate=0.3)
    params = init_params(cfg, seed=33)
    noise = [layer.rows(0) for layer in draw_noise([len(BASKET)], cfg, 4, cfg.dropout_rate)]
    recorded = forward(BASKET, cfg, params, noise=noise)
    before = len(made)
    with no_grad():
        free = forward(BASKET, cfg, params, noise=noise)
    inside = made[before:]
    assert inside
    assert all(not t.requires_grad and t._parents == () and t._backward is None
               for t in inside)
    np.testing.assert_array_equal(free.context.data, recorded.context.data)
    np.testing.assert_array_equal(free.logprob.data, recorded.logprob.data)
    assert recorded.context._backward is not None


@pytest.mark.parametrize("cfg", [small_sc_config(), small_mc_config(mc_last_layer_heads=3)],
                         ids=["sc", "mc"])
def test_recommend_topk_records_no_graph_node(made, cfg):
    params = init_params(cfg, seed=34)
    before = len(made)
    recommend_topk(BASKET, cfg, params, k=5, rng_seed=1)
    inside = made[before:]
    assert inside
    assert not any(t._parents or t._backward is not None for t in inside)


def test_backward_raises_inside_no_grad():
    cfg = small_sc_config()
    params = init_params(cfg, seed=35)
    loss, _ = batch_loss([[3, 1, 2], [5, 6]], cfg, params)
    with no_grad():
        with pytest.raises(RuntimeError, match="backward: called inside no_grad"):
            T.backward(loss)
    assert all(p.grad is None for _, p in named_parameters(params))


def test_train_refuses_to_start_inside_no_grad(monkeypatch):
    cfg = small_sc_config()
    params = init_params(cfg, seed=36)
    before = {n: p.data.copy() for n, p in named_parameters(params)}
    monkeypatch.setattr(npa.training, "batch_loss",
                        lambda *a, **kw: pytest.fail("a training step ran"))
    with no_grad():
        with pytest.raises(RuntimeError, match="train: called inside tensor.no_grad"):
            train([[3, 1, 2], [5, 6, 4]], cfg, params, TrainConfig(epochs=1))
    for n, p in named_parameters(params):
        assert np.array_equal(before[n], p.data), n


def test_no_grad_nests_and_restores_recording():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    assert T._grad_enabled
    with no_grad():
        with no_grad():
            assert not T._grad_enabled
        assert not T._grad_enabled
        assert not T.matmul(x, x).requires_grad
    assert T._grad_enabled
    with pytest.raises(KeyError):
        with no_grad():
            raise KeyError("boom")
    assert T._grad_enabled
    assert T.matmul(x, x)._backward is not None
