"""Vector-quantized attention unit: projections, beliefs, extraction, context."""

import dataclasses

import numpy as np
import pytest

from npa import tensor as T
from npa import vqa
from npa.tensor import Tensor

import composed as C


def make_params(rng, input_dim=6, attn_dim=4, num_patterns=4):
    return vqa.init_vqa_params(rng, input_dim, attn_dim, num_patterns)


def test_project_identity_query():
    rng = np.random.default_rng(0)
    params = make_params(rng, input_dim=4, attn_dim=4)
    params.w_query.data = np.eye(4)
    x = rng.normal(size=(3, 4))
    q, _, _ = vqa.project_items(x, params)
    np.testing.assert_array_equal(q, x)


def test_project_single_item_single_row():
    rng = np.random.default_rng(1)
    params = make_params(rng)
    q, k, v = vqa.project_items(rng.normal(size=(1, 6)), params)
    assert q.shape == (1, 4) and k.shape == (1, 4) and v.shape == (1, 4)


def test_project_matches_matrix_product_oracle():
    rng = np.random.default_rng(2)
    params = make_params(rng)
    x = rng.normal(size=(3, 6))
    q, k, v = vqa.project_items(x, params)
    np.testing.assert_allclose(q, x @ params.w_query.data.T, atol=1e-12)
    np.testing.assert_allclose(k, x @ params.w_key.data.T, atol=1e-12)
    np.testing.assert_allclose(v, x @ params.w_value.data.T, atol=1e-12)


def test_pattern_attention_single_entry_codebook():
    rng = np.random.default_rng(3)
    params = make_params(rng, num_patterns=1)
    q, _, _ = vqa.project_items(rng.normal(size=(3, 6)), params)
    a = vqa.pattern_attention(q, params)
    np.testing.assert_allclose(a, np.ones((3, 1)))


def test_pattern_attention_orthogonal_queries_uniform():
    rng = np.random.default_rng(4)
    params = make_params(rng)
    q = np.zeros((2, 4))  # zero queries: orthogonal to every key
    a = vqa.pattern_attention(q, params)
    np.testing.assert_allclose(a, np.full((2, 4), 0.25), atol=1e-12)


def test_pattern_attention_matches_softmax_oracle():
    rng = np.random.default_rng(5)
    params = make_params(rng, num_patterns=4)
    x = rng.normal(size=(2, 6))
    q, _, _ = vqa.project_items(x, params)
    a = vqa.pattern_attention(q, params)
    keys = params.codebook.data @ params.w_pattern_key.data.T
    logits = q @ keys.T / np.sqrt(4)
    expected = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(a, expected, atol=1e-12)


def test_pattern_attention_rejects_an_empty_codebook():
    params = dataclasses.replace(make_params(np.random.default_rng(6)),
                                 codebook=Tensor(np.zeros((0, 4))))
    with pytest.raises(T.ShapeError, match=r"^softmax: expected non-empty rows, "
                                           r"got shape \(2, 0\)$"):
        vqa.pattern_attention(np.ones((2, 4)), params)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def prefix_oracle(x, params, strategy, uniforms=None):
    """Brute-force unit in plain numpy: every prefix x[:t+1] on its own.

    Returns the per-step contexts, prefix beliefs and pattern indices (None
    for weighted-average extraction). uniforms[t] are the Gumbel draws of
    step t for sampling extraction.
    """
    codebook = params.codebook.data
    pattern_keys = codebook @ params.w_pattern_key.data.T
    contexts, beliefs, indices = [], [], []
    for t in range(len(x)):
        prefix = x[:t + 1]
        q = prefix @ params.w_query.data.T
        k = prefix @ params.w_key.data.T
        v = prefix @ params.w_value.data.T
        belief = _softmax(q @ pattern_keys.T / np.sqrt(q.shape[1])).mean(axis=0)
        if strategy.kind == vqa.WEIGHTED_AVERAGE:
            z = belief @ codebook
        else:
            if strategy.kind == vqa.GREEDY:
                index = int(np.argmax(belief))
            else:
                gumbel = -np.log(-np.log(uniforms[t]))
                index = int(np.argmax(np.log(belief) / strategy.gumbel_temperature + gumbel))
            indices.append(index)
            z = codebook[index]
        rho = params.w_context_query.data @ z
        weights = _softmax(k @ rho / np.sqrt(rho.size))
        contexts.append(v.T @ weights)
        beliefs.append(belief)
    return np.array(contexts), np.array(beliefs), (np.array(indices) if indices else None)


def check_against_oracle(contexts, beliefs, index, x, params, strategy, uniforms):
    """unit_forward's rows for one basket x against the brute-force oracle."""
    want_contexts, want_beliefs, want_index = prefix_oracle(x, params, strategy, uniforms)
    np.testing.assert_allclose(contexts, want_contexts, rtol=0, atol=1e-12)
    np.testing.assert_allclose(beliefs, want_beliefs, rtol=0, atol=1e-12)
    if want_index is None:
        assert index is None
    else:
        np.testing.assert_array_equal(index, want_index)


STRATEGIES = [vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE), vqa.ExtractionStrategy(vqa.GREEDY),
              vqa.ExtractionStrategy(vqa.SAMPLING, gumbel_temperature=0.7)]


def test_aggregate_single_unmasked_row():
    rng = np.random.default_rng(6)
    params = make_params(rng)
    x = rng.normal(size=(3, 6))
    q, _, _ = vqa.project_items(x, params)
    state = vqa.unit_forward(Tensor(x), params, vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE))
    # A one-item prefix's belief is that item's own distribution.
    np.testing.assert_array_equal(state.prefix_attention.data[0],
                                  vqa.pattern_attention(q, params)[0])


def test_aggregate_two_rows_mean():
    rng = np.random.default_rng(19)
    params = make_params(rng)
    x = rng.normal(size=(3, 6))
    q, _, _ = vqa.project_items(x, params)
    a = vqa.pattern_attention(q, params)
    state = vqa.unit_forward(Tensor(x), params, vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE))
    np.testing.assert_allclose(state.prefix_attention.data[1], a[:2].mean(axis=0), atol=1e-15)


def test_aggregate_all_masked_is_error():
    rng = np.random.default_rng(23)
    # Every prefix holds its own step, so only an empty basket has a row
    # with nothing to average.
    with pytest.raises(ValueError, match="non-empty item matrix"):
        vqa.unit_forward(Tensor(np.zeros((2, 0, 6))), make_params(rng),
                         vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE))


def test_extract_one_hot_belief_all_strategies_agree():
    rng = np.random.default_rng(7)
    params = make_params(rng, input_dim=4)
    params.w_query.data = np.eye(4)
    params.w_pattern_key.data = np.eye(4)
    params.codebook.data = np.eye(4) + 0.1 * rng.normal(size=(4, 4))
    # Items aligned with codebook row 2 at a large scale: every softmax
    # saturates, so every prefix belief is exactly one-hot on row 2.
    x = Tensor(np.tile(1e4 * params.codebook.data[2], (3, 1)))
    uniforms = rng.random((3, 4))
    states = [vqa.unit_forward(x, params, s, uniforms=uniforms) for s in STRATEGIES]
    np.testing.assert_array_equal(states[0].prefix_attention.data, np.tile(np.eye(4)[2], (3, 1)))
    np.testing.assert_array_equal(states[1].pattern_index, [2, 2, 2])
    np.testing.assert_array_equal(states[2].pattern_index, [2, 2, 2])
    np.testing.assert_array_equal(states[1].contexts.data, states[2].contexts.data)
    np.testing.assert_allclose(states[0].contexts.data, states[1].contexts.data, atol=1e-15)


def test_extract_greedy_argmax():
    rng = np.random.default_rng(8)
    params = make_params(rng, num_patterns=3)
    x = rng.normal(size=(6, 6))
    state = vqa.unit_forward(Tensor(x), params, vqa.ExtractionStrategy(vqa.GREEDY))
    np.testing.assert_array_equal(state.pattern_index,
                                  np.argmax(state.prefix_attention.data, axis=1))
    assert state.pattern_logprob is None


def test_extract_greedy_tie_breaks_low_index():
    rng = np.random.default_rng(9)
    params = make_params(rng, num_patterns=2)
    params.codebook.data[1] = params.codebook.data[0]
    state = vqa.unit_forward(Tensor(rng.normal(size=(5, 6))), params,
                             vqa.ExtractionStrategy(vqa.GREEDY))
    np.testing.assert_array_equal(state.prefix_attention.data, 0.5)
    np.testing.assert_array_equal(state.pattern_index, np.zeros(5))


def test_sampling_frequencies_match_categorical():
    rng = np.random.default_rng(10)
    params = make_params(rng, num_patterns=3)
    draws = 20_000
    # One single-item basket per draw, so every row shares one belief.
    x = np.broadcast_to(rng.normal(size=(1, 1, 6)), (draws, 1, 6))
    state = vqa.unit_forward(Tensor(x), params, vqa.ExtractionStrategy(vqa.SAMPLING),
                             uniforms=rng.random((draws, 1, 3)))
    belief = state.prefix_attention.data[0, 0]
    freq = np.bincount(state.pattern_index[:, 0], minlength=3) / draws
    np.testing.assert_allclose(freq, belief, atol=4 * np.sqrt(0.25 / draws))
    np.testing.assert_allclose(state.pattern_logprob.data[:, 0],
                               np.log(belief[state.pattern_index[:, 0]]), rtol=1e-15)


def test_sampling_deterministic_given_seed():
    rng = np.random.default_rng(20)
    params = make_params(rng)
    x = Tensor(rng.normal(size=(4, 6)))
    strategy = vqa.ExtractionStrategy(vqa.SAMPLING)
    a, b = (vqa.unit_forward(x, params, strategy,
                             uniforms=np.random.default_rng(5).random((4, 4)))
            for _ in range(2))
    np.testing.assert_array_equal(a.pattern_index, b.pattern_index)
    assert np.array_equal(a.contexts.data, b.contexts.data)


def test_sampling_needs_uniforms():
    rng = np.random.default_rng(21)
    with pytest.raises(ValueError, match="Gumbel uniforms"):
        vqa.unit_forward(Tensor(rng.normal(size=(2, 6))), make_params(rng),
                         vqa.ExtractionStrategy(vqa.SAMPLING))


def test_first_context_is_first_value_row():
    rng = np.random.default_rng(11)
    params = make_params(rng)
    x = rng.normal(size=(3, 6))
    _, _, v = vqa.project_items(x, params)
    state = vqa.unit_forward(Tensor(x), params, vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE))
    # Step 0 sees one unmasked item, so all its context weight is on it.
    np.testing.assert_allclose(state.contexts.data[0], v[0], atol=1e-12)


def test_identical_keys_average_values():
    rng = np.random.default_rng(12)
    params = make_params(rng)
    params.w_key.data = np.zeros_like(params.w_key.data)
    x = rng.normal(size=(4, 6))
    _, _, v = vqa.project_items(x, params)
    state = vqa.unit_forward(Tensor(x), params, vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE))
    means = np.cumsum(v, axis=0) / np.arange(1, 5)[:, None]
    np.testing.assert_allclose(state.contexts.data, means, atol=1e-12)


def test_estimate_context_matches_brute_force_oracle():
    rng = np.random.default_rng(13)
    params = make_params(rng)
    x = rng.normal(size=(3, 6))
    _, k, v = vqa.project_items(x, params)
    state = vqa.unit_forward(Tensor(x), params, vqa.ExtractionStrategy(vqa.GREEDY))
    for t, index in enumerate(state.pattern_index):
        # The context of step t attends over the prefix with the chosen pattern as query.
        rho = params.w_context_query.data @ params.codebook.data[index]
        logits = k[:t + 1] @ rho / np.sqrt(4)
        b = np.exp(logits - logits.max())
        b /= b.sum()
        np.testing.assert_allclose(state.contexts.data[t], v[:t + 1].T @ b, atol=1e-12)


def test_unit_order_invariance_without_positions():
    rng = np.random.default_rng(15)
    params = make_params(rng)
    x = rng.normal(size=(5, 6))
    strategy = vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE)
    s0 = vqa.unit_forward(Tensor(x), params, strategy)
    s1 = vqa.unit_forward(Tensor(x[rng.permutation(5)]), params, strategy)
    # The last row is the whole basket, whatever its order.
    np.testing.assert_allclose(s0.prefix_attention.data[-1], s1.prefix_attention.data[-1],
                               atol=1e-9)
    np.testing.assert_allclose(s0.contexts.data[-1], s1.contexts.data[-1], atol=1e-9)


def test_mask_soundness_bit_identical():
    rng = np.random.default_rng(16)
    params = make_params(rng)
    x = rng.normal(size=(5, 6))
    x2 = x.copy()
    x2[3] = rng.normal(size=6) * 100  # a later item's features
    for strategy in STRATEGIES:
        uniforms = rng.random((5, 4))
        s0 = vqa.unit_forward(Tensor(x), params, strategy, uniforms=uniforms)
        s1 = vqa.unit_forward(Tensor(x2), params, strategy, uniforms=uniforms)
        # The causal masks keep step 3 out of every earlier row.
        assert np.array_equal(s0.contexts.data[:3], s1.contexts.data[:3])
        assert np.array_equal(s0.prefix_attention.data[:3], s1.prefix_attention.data[:3])
        assert np.array_equal(s0.context_attention.data[:3], s1.context_attention.data[:3])


def test_scale_stability_large_dims():
    for dim in (64, 256, 1024):
        rng = np.random.default_rng(dim)
        params = vqa.init_vqa_params(rng, dim, dim, 8)
        x = rng.normal(size=(3, dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        q, k, v = vqa.project_items(x, params)
        a = vqa.pattern_attention(q, params)
        assert np.isfinite(a).all()
        state = vqa.unit_forward(Tensor(x), params, vqa.ExtractionStrategy(vqa.WEIGHTED_AVERAGE))
        assert np.isfinite(state.contexts.data).all()


def test_unit_forward_matches_prefix_loop():
    rng = np.random.default_rng(17)
    params = make_params(rng)
    x = rng.normal(size=(5, 6))
    uniforms = rng.random((5, 4))
    for strategy in STRATEGIES:
        state = vqa.unit_forward(Tensor(x), params, strategy, uniforms=uniforms)
        check_against_oracle(state.contexts.data, state.prefix_attention.data,
                             state.pattern_index, x, params, strategy, uniforms)


def test_unit_forward_padded_batch_matches_prefix_loop():
    rng = np.random.default_rng(22)
    params = make_params(rng)
    lengths = [5, 2, 4, 1]
    x = rng.normal(size=(len(lengths), 5, 6))  # padded steps hold junk
    uniforms = rng.random((len(lengths), 5, 4))
    for strategy in STRATEGIES:
        batch = vqa.unit_forward(Tensor(x), params, strategy, uniforms=uniforms)
        for b, n in enumerate(lengths):
            index = None if batch.pattern_index is None else batch.pattern_index[b, :n]
            check_against_oracle(batch.contexts.data[b, :n], batch.prefix_attention.data[b, :n],
                                 index, x[b, :n], params, strategy, uniforms[b, :n])


def test_strategy_validation():
    with pytest.raises(ValueError):
        vqa.ExtractionStrategy("nearest")
    with pytest.raises(ValueError):
        vqa.ExtractionStrategy(vqa.SAMPLING, gumbel_temperature=0.0)


def test_params_dim_validation():
    rng = np.random.default_rng(18)
    good = make_params(rng)
    with pytest.raises(ValueError, match="query dim"):
        vqa.VqaParams(w_query=Tensor(np.zeros((3, 6))), w_key=good.w_key,
                      w_value=good.w_value, w_pattern_key=good.w_pattern_key,
                      w_context_query=good.w_context_query, codebook=good.codebook)


# The unit composed from autodiff primitives, one graph node per operation:
# the oracle for unit_forward's hand-written backward. Same operations in
# the same order, so values and gradients must match to the bit.

def _stack(tensors):
    """Same-shape tensors stacked on a new leading axis (reshape and concat)."""
    shape = tensors[0].shape
    flat = T.concat([T.reshape(t, (1, int(np.prod(shape)))) for t in tensors])
    return T.reshape(flat, (len(tensors),) + shape)


def _weight(params, name, batch):
    """One unit's projection, or the heads' stacked heads-first with
    ``batch`` unit axes after the heads axis."""
    if isinstance(params, vqa.VqaParams):
        return getattr(params, name)
    w = _stack([getattr(p, name) for p in params])
    return T.reshape(w, w.shape[:1] + (1,) * batch + w.shape[1:]) if batch else w


def composed_project_items(x, params):
    batch = x.data.ndim - 2
    return tuple(T.matmul(x, T.transpose(_weight(params, name, batch)))
                 for name in ("w_query", "w_key", "w_value"))


def composed_pattern_attention(q, params, keep_mask=None):
    codebook = params.codebook if isinstance(params, vqa.VqaParams) else params[0].codebook
    keys = T.matmul(codebook, T.transpose(_weight(params, "w_pattern_key", q.data.ndim - 3)))
    logits = T.scale(T.matmul(q, T.transpose(keys)), 1.0 / np.sqrt(q.shape[-1]))
    return C.softmax(logits, mask=keep_mask)


def composed_unit_forward(inputs, params, strategy, keep_mask=None, uniforms=None):
    n = inputs.shape[-2]
    batch = len(inputs.shape) - 2
    q, k, v = composed_project_items(inputs, params)
    a = composed_pattern_attention(q, params, keep_mask=keep_mask)
    abar = T.matmul(Tensor(vqa.prefix_mean_matrix(n)), a)
    codebook = params.codebook if isinstance(params, vqa.VqaParams) else params[0].codebook
    idx = logprob = None
    if strategy.kind == vqa.WEIGHTED_AVERAGE:
        z = T.matmul(abar, codebook)
    else:
        if strategy.kind == vqa.GREEDY:
            idx = np.argmax(abar.data, axis=-1)
        else:
            with np.errstate(divide="ignore"):
                logp = np.log(abar.data)
            g = -np.log(-np.log(uniforms))
            idx = np.argmax(logp / strategy.gumbel_temperature + g, axis=-1)
            logprob = C.log(C.take_per_row(abar, idx))
        z = T.gather_rows(codebook, idx)
    rho = T.matmul(z, T.transpose(_weight(params, "w_context_query", batch)))
    logits = T.scale(T.matmul(rho, T.transpose(k)), 1.0 / np.sqrt(rho.shape[-1]))
    b = C.softmax(logits, mask=vqa.causal_mask(n))
    return vqa.UnitState(contexts=T.matmul(b, v), prefix_attention=abar, context_attention=b,
                         pattern_index=idx, pattern_logprob=logprob)


def _shared_codebook_heads(rng, count):
    first = make_params(rng)
    return [first] + [dataclasses.replace(make_params(rng), codebook=first.codebook)
                      for _ in range(count - 1)]


def _weighted_sum(t, weights):
    """sum(t * weights) as a graph, so the gradient at t is exactly weights."""
    return T.matmul(T.reshape(t, (1, weights.size)), Tensor(weights.reshape(-1, 1)))


def _run_and_backward(forward, x, params, strategy, keep, uniforms, upstream):
    """One unit's outputs and every gradient, from a loss that also reaches
    the inputs directly (as the residual path does) before the unit."""
    inputs = Tensor(x, requires_grad=True)
    units = [params] if isinstance(params, vqa.VqaParams) else params
    leaves = [inputs] + [t for u in units for _, t in u.named("u")]
    for t in leaves:
        t.grad = None
    state = forward(inputs, params, strategy, keep, uniforms)
    loss = T.add(_weighted_sum(inputs, upstream["inputs"]),
                 _weighted_sum(state.contexts, upstream["contexts"]))
    if state.pattern_logprob is not None:
        loss = T.add(loss, _weighted_sum(state.pattern_logprob, upstream["logprob"]))
    T.backward(T.reshape(loss, ()))
    outputs = [state.contexts, state.prefix_attention, state.context_attention,
               state.pattern_logprob]
    return ([None if o is None else o.data for o in outputs], state.pattern_index,
            [None if t.grad is None else t.grad.copy() for t in leaves])


@pytest.mark.parametrize("strategy", STRATEGIES, ids=[s.kind for s in STRATEGIES])
@pytest.mark.parametrize("heads", [0, 3], ids=["unit", "heads"])
@pytest.mark.parametrize("lengths", [[5], [5, 2, 4]], ids=["basket", "padded"])
@pytest.mark.parametrize("dropout", [False, True], ids=["plain", "dropout"])
def test_unit_node_equals_composed_graph(strategy, heads, lengths, dropout):
    rng = np.random.default_rng(31 + heads)
    params = _shared_codebook_heads(rng, heads) if heads else make_params(rng)
    n = max(lengths)
    valid = np.arange(n) < np.array(lengths)[:, None]
    x = rng.normal(size=(len(lengths), n, 6)) * valid[..., None]  # padded rows zeroed
    lead = (heads,) if heads else ()
    if len(lengths) == 1:  # a single basket has no batch axis
        x, valid = x[0], valid[0]
    uniforms = rng.random(lead + valid.shape + (4,))
    keep = None
    if dropout:
        keep = rng.random(uniforms.shape) >= 0.4
        keep[..., 0] = True
    # Padded rows get no gradient, as in training.
    upstream = {"inputs": rng.normal(size=x.shape),
                "contexts": rng.normal(size=lead + valid.shape + (4,)) * valid[..., None],
                "logprob": rng.normal(size=lead + valid.shape) * valid}
    got = _run_and_backward(vqa.unit_forward, x, params, strategy, keep, uniforms, upstream)
    want = _run_and_backward(composed_unit_forward, x, params, strategy, keep, uniforms,
                             upstream)
    for g, w in zip(got[0] + [got[1]] + got[2], want[0] + [want[1]] + want[2]):
        assert (g is None) == (w is None)
        if w is not None:
            assert np.array_equal(g, w)
    # Greedy extraction reaches neither w_query nor w_pattern_key.
    assert (got[2][1] is None) == (strategy.kind == vqa.GREEDY)

