"""AdamW update rule, state bookkeeping, and convergence behavior."""

import tracemalloc

import numpy as np
import pytest

from npa import tensor as T
from npa.optim import AdamW, MissingGradError, clip_grad_norm
from npa.tensor import Tensor


def test_zero_grad_zero_decay_leaves_params():
    w = Tensor([1.0, -2.0], requires_grad=True)
    w.grad = np.zeros(2)
    opt = AdamW([("w", w)], lr=0.1, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(w.data, [1.0, -2.0])


def test_single_step_descends_quadratic():
    w = Tensor([[1.0]], requires_grad=True)
    opt = AdamW([("w", w)], lr=0.05, weight_decay=0.0)
    loss = T.reshape(T.matmul(w, w), ())
    T.backward(loss)
    opt.step()
    assert abs(w.data.item()) < 1.0


def test_least_squares_converges():
    # Closed-form optimum w* solves min ||A w - b||^2; loss there is 0.
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 2))
    w_star = np.array([0.7, -1.3])
    b = A @ w_star
    w = Tensor(np.zeros((2, 1)), requires_grad=True)
    opt = AdamW([("w", w)], lr=0.1, weight_decay=0.0)
    for _ in range(200):
        r = T.add(T.matmul(Tensor(A), w), Tensor(-b[:, None]))
        loss = T.scale(T.mean(T.matmul(T.transpose(r), r)), 1.0 / len(b))
        T.backward(loss)
        opt.step()
        opt.zero_grad()
    final = float(np.mean((A @ w.data[:, 0] - b) ** 2))
    assert final < 1e-3
    lstsq = np.linalg.lstsq(A, b, rcond=None)[0]
    np.testing.assert_allclose(w.data[:, 0], lstsq, atol=0.05)


def test_missing_grad_names_parameter():
    w = Tensor([1.0], requires_grad=True)
    v = Tensor([1.0], requires_grad=True)
    v.grad = np.ones(1)
    opt = AdamW([("alpha", w), ("beta", v)], lr=0.1)
    with pytest.raises(MissingGradError, match="alpha"):
        opt.step()


def test_step_count_increments_by_one():
    w = Tensor([1.0], requires_grad=True)
    opt = AdamW([("w", w)], lr=0.01)
    for expected in (1, 2, 3):
        w.grad = np.ones(1)
        opt.step()
        assert opt.step_count == expected


def test_moments_match_parameter_shapes():
    w = Tensor(np.zeros((3, 4)), requires_grad=True)
    opt = AdamW([("w", w)], lr=0.01)
    assert opt.first_moment["w"].shape == (3, 4)
    assert opt.second_moment["w"].shape == (3, 4)


def test_decoupled_weight_decay_shrinks_without_gradient_signal():
    w = Tensor([10.0], requires_grad=True)
    opt = AdamW([("w", w)], lr=0.1, weight_decay=0.5)
    w.grad = np.zeros(1)
    opt.step()
    # Pure decay: w <- w - lr * wd * w
    np.testing.assert_allclose(w.data, [10.0 * (1 - 0.1 * 0.5)])


def test_update_matches_manual_adamw_formula():
    w = Tensor([2.0], requires_grad=True)
    opt = AdamW([("w", w)], lr=0.1, weight_decay=0.01)
    g = np.array([0.3])
    w.grad = g.copy()
    opt.step()
    m = 0.1 * g
    v = 0.001 * g * g
    step = (m / (1 - 0.9)) / (np.sqrt(v / (1 - 0.999)) + 1e-8)
    expected = 2.0 - 0.1 * (step + 0.01 * 2.0)
    np.testing.assert_allclose(w.data, expected, rtol=1e-12)


def reference_adamw(weights, gradients, lr, weight_decay):
    """The weights after one AdamW step per entry of gradients, written as
    the formula reads, one temporary array per operation."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    weights = [w.copy() for w in weights]
    m = [np.zeros_like(w) for w in weights]
    v = [np.zeros_like(w) for w in weights]
    for t, grads in enumerate(gradients, start=1):
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for i, g in enumerate(grads):
            m[i] *= b1
            m[i] += (1.0 - b1) * g
            v[i] *= b2
            v[i] += (1.0 - b2) * g * g
            update = (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
            if weight_decay:
                update = update + weight_decay * weights[i]
            weights[i] = weights[i] - lr * update
    return weights


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_steps_are_bit_identical_to_the_formula(weight_decay):
    rng = np.random.default_rng(7)
    shapes = [(10_000, 32), (), (1,), (7,), (3, 5), (2, 1, 4)]
    shapes += [tuple(rng.integers(1, 40, size=rng.integers(1, 4))) for _ in range(4)]
    start = [rng.normal(size=shape) for shape in shapes]
    gradients = [[rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                  for shape in shapes] for _ in range(24)]
    for step in gradients[5::6]:
        step[3][...] = 0.0  # a zero gradient: the update is the moments' alone
    params = [(f"p{i}", Tensor(w.copy(), requires_grad=True)) for i, w in enumerate(start)]
    opt = AdamW(params, lr=3e-3, weight_decay=weight_decay)
    for grads in gradients:
        before = [p.data for _, p in params]
        for (_, p), g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        for (_, p), old in zip(params, before):
            # Rebound, never written in place; a 0-d weight stays an array.
            assert p.data is not old and isinstance(p.data, np.ndarray)
    for (_, p), want in zip(params, reference_adamw(start, gradients, 3e-3, weight_decay)):
        assert p.data.shape == want.shape and np.array_equal(p.data, want)


def test_step_allocates_one_scratch_and_the_new_weight():
    w = Tensor(np.random.default_rng(8).normal(size=(10_000, 32)), requires_grad=True)
    w.grad = np.random.default_rng(9).normal(size=w.shape)
    opt = AdamW([("w", w)], lr=1e-3, weight_decay=0.01)
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * w.data.nbytes


def test_clip_grad_norm_scales_to_bound():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    a.grad = np.full(3, 3.0)
    b.grad = np.full(4, 4.0)
    params = [("a", a), ("b", b)]
    norm = clip_grad_norm(params, 1.0)
    assert norm > 1.0
    total = sum(float((p.grad ** 2).sum()) for _, p in params)
    np.testing.assert_allclose(np.sqrt(total), 1.0, rtol=1e-12)


@pytest.mark.parametrize("lr, weight_decay", [(-1e-3, 0.01), (1e-3, -0.01)])
def test_adamw_rejects_negative_lr_or_weight_decay(lr, weight_decay):
    w = Tensor(np.zeros(2), requires_grad=True)
    name = "lr" if lr < 0 else "weight_decay"
    with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0$"):
        AdamW([("w", w)], lr=lr, weight_decay=weight_decay)


@pytest.mark.parametrize("name", ["lr", "weight_decay"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_adamw_rejects_non_finite_settings(name, value):
    w = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError) as err:
        AdamW([("w", w)], **{name: value})
    assert str(err.value) == f"{name} must be finite and >= 0"


@pytest.mark.parametrize("max_norm", [-1.0, 0.0, float("nan")])
def test_clip_grad_norm_rejects_non_positive_bound(max_norm):
    w = Tensor(np.zeros(2), requires_grad=True)
    w.grad = np.array([3.0, 4.0])
    with pytest.raises(ValueError) as err:
        clip_grad_norm([("w", w)], max_norm)
    assert str(err.value) == "max_norm must be positive"
    np.testing.assert_array_equal(w.grad, [3.0, 4.0])


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_clip_grad_norm_raises_on_non_finite_gradient(bad):
    # Scaling by max_norm / inf would zero every other gradient and turn the
    # inf into NaN; a NaN norm would skip clipping. Either way AdamW would
    # then write NaN into a weight.
    params = [(name, Tensor(np.zeros(3), requires_grad=True)) for name in "abc"]
    params[0][1].grad = np.array([3.0, 4.0, 0.0])
    params[1][1].grad = np.array([1.0, bad, 2.0])
    params[2][1].grad = np.array([bad, 0.0, 0.0])
    before = [p.grad.copy() for _, p in params]
    with pytest.raises(FloatingPointError, match="^gradient of b is not finite$"):
        clip_grad_norm(params, 1.0)
    for (_, p), want in zip(params, before):
        assert p.grad.tobytes() == want.tobytes()


def test_clip_grad_norm_raises_when_the_norm_overflows():
    w = Tensor(np.zeros(2), requires_grad=True)
    w.grad = np.array([1e200, 1e200])
    with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match="^gradient norm overflows float64$"):
        clip_grad_norm([("w", w)], 1.0)
    np.testing.assert_array_equal(w.grad, [1e200, 1e200])
