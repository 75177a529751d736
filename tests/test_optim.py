"""AdamW update rule, state bookkeeping, and convergence behavior."""

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
    with pytest.raises(ValueError, match=r"^lr and weight_decay must be >= 0$"):
        AdamW([("w", w)], lr=lr, weight_decay=weight_decay)
