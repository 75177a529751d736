"""Tensor engine: primitives, shape errors, and gradient correctness.

Every differentiable primitive is checked against central finite
differences; relative error must stay within 1e-4 (absolute 1e-6 near
zero), matching the engine's stated gradient contract. The softmax, log
and per-row pick of ``composed`` (the primitives only the test oracles
compose with, on the engine's softmax kernel) are checked here the same
way.
"""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from npa import tensor as T
from npa.tensor import ShapeError, Tensor

import composed as C
from conftest import count_threads, force_split


def fd_gradient(fn, x: Tensor, h=1e-6):
    """Central-difference gradient of scalar fn with respect to x.data."""
    g = np.zeros_like(x.data)
    it = np.nditer(x.data, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = x.data[ix]
        x.data[ix] = orig + h
        up = float(fn().data)
        x.data[ix] = orig - h
        down = float(fn().data)
        x.data[ix] = orig
        g[ix] = (up - down) / (2 * h)
    return g


def check_grad(fn, x: Tensor, h=1e-6, rtol=1e-4, atol=1e-6):
    out = fn()
    x.grad = None  # an earlier check on the same graph may have filled it
    T.backward(out)
    analytic = x.grad.copy()
    x.grad = None
    numeric = fd_gradient(fn, x, h)
    denom = np.maximum(np.abs(numeric), np.abs(analytic))
    small = denom < 1e-6
    assert np.all(np.abs(analytic - numeric)[small] < atol)
    big = ~small
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.abs(analytic - numeric) / denom
    assert np.all(ratio[big] < rtol)


def head(x):
    """Scalar mean log-softmax: its upstream gradient differs entry by entry."""
    return T.mean(C.log(C.softmax(x)))


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, np.eye(2))
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_shape_error_names_primitive():
    with pytest.raises(ShapeError, match="matmul.*\\(2, 3\\).*\\(2, 3\\)"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_softmax_uniform_logits():
    out = C.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_max_subtraction_no_overflow():
    out = C.softmax(Tensor([1000.0, 1000.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])
    assert np.isfinite(out.data).all()


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = Tensor(rng.normal(size=(5, 7)) * 10)
        p = C.softmax(x).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert (p > 0).all() and (p < 1).all()


def test_softmax_masked_rows_exactly_zero():
    mask = np.array([[True, False, True], [True, True, False]])
    p = C.softmax(Tensor(np.random.default_rng(1).normal(size=(2, 3))), mask=mask).data
    assert p[0, 1] == 0.0 and p[1, 2] == 0.0
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_empty_row_error():
    with pytest.raises(ShapeError, match="no unmasked"):
        C.softmax(Tensor(np.ones((2, 2))), mask=np.array([[True, True], [False, False]]))


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(T.scale(T.mean(x), 3.0))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_dot_gives_2x():
    x = Tensor([2.0, 3.0], requires_grad=True)
    dot = T.matmul(T.reshape(x, (1, 2)), T.reshape(x, (2, 1)))
    T.backward(T.reshape(dot, ()))
    np.testing.assert_allclose(x.grad, [4.0, 6.0])


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        T.backward(T.scale(x, 2.0))


def test_backward_rejects_non_finite():
    x = Tensor(np.inf, requires_grad=True)
    with pytest.raises(FloatingPointError):
        T.backward(x)


def test_backward_on_a_loss_without_gradient_is_a_no_op():
    x = Tensor([1.0, 2.0])
    loss = T.mean(T.scale(x, 3.0))
    T.backward(loss)
    assert loss.grad is None and x.grad is None


def test_repr_names_shape_and_gradient_flag():
    assert repr(Tensor(np.zeros((2, 3)), requires_grad=True)) == \
        "Tensor(shape=(2, 3), requires_grad=True)"


def test_gradients_accumulate_across_uses():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.add(x, x)  # dy/dx twice
    T.backward(T.scale(T.mean(y), 2.0))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_second_backward_through_same_graph_is_fresh():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.mean(T.scale(x, 3.0))
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, [1.5, 1.5])
    x.grad = None
    T.backward(loss)  # the inner node's grad from the first sweep is not re-added
    np.testing.assert_array_equal(x.grad, [1.5, 1.5])


def test_second_loss_sharing_a_subgraph_is_fresh():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.scale(x, 3.0)
    T.backward(T.mean(y))
    x.grad = None
    T.backward(T.mean(T.add(y, y)))
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_leaf_grads_accumulate_across_sweeps():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.scale(x, 3.0)
    T.backward(T.mean(y))
    T.backward(T.mean(T.add(y, y)))
    np.testing.assert_array_equal(x.grad, [4.5, 4.5])


def test_grad_matmul():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)))
    check_grad(lambda: head(T.matmul(a, b)), a)
    # Leading batch axes: a shared 2-d right operand, then a batched one.
    a3 = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    check_grad(lambda: head(T.matmul(a3, w)), a3)
    check_grad(lambda: head(T.matmul(a3, w)), w)
    b3 = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    check_grad(lambda: head(T.matmul(a3, b3)), a3)
    check_grad(lambda: head(T.matmul(a3, b3)), b3)


def test_grad_matmul_broadcast_over_heads_and_batch():
    rng = np.random.default_rng(21)
    # A (B, n, k) batch against heads of a (H, 1, k, m) stack: the batch is
    # broadcast over the heads axis, the stacked weight over the batch axis.
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 1, 5, 3)), requires_grad=True)
    check_grad(lambda: head(T.matmul(x, w)), x)
    check_grad(lambda: head(T.matmul(x, w)), w)
    # One matrix on the left against stacked heads, then a weight broadcast
    # over a batch axis that is not the last leading one.
    c = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    w3 = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    check_grad(lambda: head(T.matmul(c, w3)), c)
    check_grad(lambda: head(T.matmul(c, w3)), w3)
    y = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    v = Tensor(rng.normal(size=(1, 3, 5, 2)), requires_grad=True)
    check_grad(lambda: head(T.matmul(y, v)), y)
    check_grad(lambda: head(T.matmul(y, v)), v)


def test_stacked_weight_grad_is_each_heads_shared_weight_grad():
    # Per head, a stacked weight's gradient is the one product over the
    # batch's flattened rows that the head's own 2-d weight gets. Four
    # heads make the stacked mean's upstream gradient exactly a quarter of
    # each head's.
    rng = np.random.default_rng(22)
    x = Tensor(rng.normal(size=(3, 4, 5)))
    stacked = Tensor(rng.normal(size=(4, 1, 5, 2)), requires_grad=True)
    T.backward(head(T.matmul(x, stacked)))
    for h in range(4):
        alone = Tensor(stacked.data[h, 0], requires_grad=True)
        T.backward(head(T.matmul(x, alone)))
        assert np.array_equal(stacked.grad[h, 0] * 4, alone.grad)


def test_matmul_rejects_leading_axes_that_do_not_broadcast():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(np.ones(4)), Tensor(np.ones((4, 5))))


def test_grad_transpose_add_scale():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)))
    check_grad(lambda: T.mean(T.add(T.transpose(a), T.scale(b, 1.7))), a)
    # 3-d: transpose swaps the last two axes; add broadcasts b over axis 0.
    a3 = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b2 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    check_grad(lambda: head(T.add(T.transpose(a3), T.scale(b2, 1.7))), a3)
    check_grad(lambda: head(T.add(T.transpose(a3), T.scale(b2, 1.7))), b2)


def test_grad_concat_last_axis():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2)))
    check_grad(lambda: head(T.concat([a, b])), a)
    a3 = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    d3 = Tensor(rng.normal(size=(2, 3, 4)))
    check_grad(lambda: head(T.concat([d3, a3])), a3)
    with pytest.raises(ShapeError, match="off the last axis"):
        T.concat([a, Tensor(rng.normal(size=(3, 3)))])


def test_grad_softmax_masked():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    mask = rng.random((3, 5)) > 0.3
    mask[:, 0] = True
    w = Tensor(rng.normal(size=(5, 2)))  # weighs each probability differently
    check_grad(lambda: T.mean(T.matmul(C.softmax(a, mask=mask), w)), a)
    a3 = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    mask3 = rng.random((2, 3, 5)) > 0.3
    mask3[..., 0] = True
    check_grad(lambda: T.mean(T.matmul(C.softmax(a3, mask=mask3), w)), a3)


def test_grad_log_mean():
    rng = np.random.default_rng(7)
    a = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
    check_grad(lambda: T.mean(C.log(a)), a)
    check_grad(lambda: T.mean(C.log(T.scale(T.mean(a), 2.0))), a)


def test_grad_masked_fill():
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    mask = rng.random((3, 4)) > 0.5
    check_grad(lambda: head(T.masked_fill(a, mask, -2.0)), a)


def test_grad_gather_rows_repeated():
    rng = np.random.default_rng(9)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    idx = np.array([2, 0, 2, 1])
    check_grad(lambda: head(T.gather_rows(a, idx)), a)
    # A 2-d index gives a (2, 2, 3) batch; a tuple index picks (b, t) rows.
    check_grad(lambda: head(T.gather_rows(a, idx.reshape(2, 2))), a)
    a3 = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    rows = (np.array([1, 0, 1]), np.array([3, 0, 3]))
    check_grad(lambda: head(T.gather_rows(a3, rows)), a3)


def test_grad_take_per_row():
    rng = np.random.default_rng(10)
    a = Tensor(rng.random((4, 5)) + 0.1, requires_grad=True)
    idx = np.array([1, 4, 0, 2])
    check_grad(lambda: T.mean(C.log(C.take_per_row(a, idx))), a)
    a3 = Tensor(rng.random((2, 4, 5)) + 0.1, requires_grad=True)
    check_grad(lambda: T.mean(C.log(C.take_per_row(a3, np.array([idx, idx[::-1]])))), a3)


def test_grad_cross_entropy():
    rng = np.random.default_rng(11)
    logits = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    targets = np.array([0, 5, 2, 2])
    check_grad(lambda: T.mean(C.cross_entropy_with_logits(logits, targets)), logits)


def test_grad_reshape():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    check_grad(lambda: head(T.reshape(a, (3, 4))), a)


def test_grad_dropout_fixed_mask():
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    check_grad(lambda: T.mean(T.dropout(a, 0.5, np.random.default_rng(42).random((3, 4)))), a)


def test_cross_entropy_matches_manual():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 5))
    targets = np.array([4, 1, 0])
    nll = C.cross_entropy_with_logits(Tensor(x), targets).data
    p = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(nll, -np.log(p[np.arange(3), targets]), rtol=1e-12)


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(15)
    a = Tensor(rng.normal(size=(4, 4)) * 50)
    outs = [C.softmax(a), T.matmul(a, a), T.linear_cross_entropy(a, a, np.zeros(4, dtype=int)),
            T.mean(a)]
    for o in outs:
        assert np.isfinite(o.data).all()


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        a = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        out = T.mean(C.softmax(T.matmul(a, T.transpose(a))))
        T.backward(out)
        return out.data.copy(), a.grad.copy()
    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2) and np.array_equal(g1, g2)


def test_gather_and_take_bounds_errors():
    a = Tensor(np.ones((3, 3)))
    with pytest.raises(ShapeError):
        T.gather_rows(a, np.array([3]))
    with pytest.raises(ShapeError):
        C.take_per_row(a, np.array([0, 1, 3]))


_M = Tensor(np.ones((2, 3)))


@pytest.mark.parametrize("call, message", [
    (lambda: T.transpose(Tensor(np.ones(3))),
     r"transpose: expected 2 or more axes, got shape \(3,\)"),
    (lambda: T.add(_M, Tensor(np.ones((3, 2)))), r"add: shapes \(2, 3\) and \(3, 2\) differ"),
    (lambda: T.concat([]), "concat: no operands"),
    (lambda: C.softmax(Tensor(np.ones((2, 0)))),
     r"softmax: expected non-empty rows, got shape \(2, 0\)"),
    (lambda: C.softmax(_M, mask=np.ones(2, dtype=bool)),
     r"softmax: mask shape \(2,\) does not match \(2, 3\)"),
    (lambda: T.mean(Tensor(np.ones(0))), "mean: empty reduction"),
    (lambda: T.masked_fill(_M, np.ones(3, dtype=bool), 0.0),
     r"masked_fill: mask shape \(3,\) does not match \(2, 3\)"),
    (lambda: T.reshape(_M, (4,)), r"reshape: cannot view \(2, 3\) as \(4,\)"),
    (lambda: T.gather_rows(_M, (np.zeros(1, int), np.zeros(2, int))),
     r"gather_rows: cannot index data \(2, 3\) with \[\(1,\), \(2,\)\]"),
    (lambda: T.gather_rows(_M, np.array([2])), "gather_rows: index out of range for 2 rows"),
    (lambda: C.take_per_row(_M, np.zeros(3, int)),
     r"take_per_row: got data \(2, 3\) and index \(3,\)"),
    (lambda: C.take_per_row(_M, np.array([0, 3])),
     "take_per_row: column index out of range for 3 columns"),
    (lambda: C.cross_entropy_with_logits(_M, np.zeros(3, int)),
     r"cross_entropy: got logits \(2, 3\) and targets \(3,\)"),
    (lambda: C.cross_entropy_with_logits(_M, np.array([0, 3])),
     "cross_entropy: target out of range for 3 classes"),
    (lambda: T.linear_cross_entropy(_M, np.ones((2, 4)), np.zeros(2, int)),
     r"linear_cross_entropy: got x \(2, 3\), w \(2, 4\) and targets \(2,\)"),
    (lambda: T.linear_cross_entropy(_M, np.ones((3, 4)), np.zeros(3, int)),
     r"linear_cross_entropy: got x \(2, 3\), w \(3, 4\) and targets \(3,\)"),
    (lambda: T.linear_cross_entropy(_M, np.ones((3, 4)), np.array([0, 4])),
     "linear_cross_entropy: target out of range for 4 classes"),
    (lambda: T.dropout(_M, 0.5, np.ones(3)),
     r"dropout: draws of shape \(3,\) for data \(2, 3\)"),
], ids=["transpose", "add", "concat_empty", "softmax_rows", "softmax_mask", "mean", "masked_fill",
        "reshape", "gather_index", "gather_range", "take_index", "take_range", "ce_shape",
        "ce_range", "head_inner", "head_targets", "head_range", "dropout"])
def test_shape_errors_name_primitive_and_shapes(call, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        call()


def test_dropout_zero_rate_is_identity():
    a = Tensor(np.ones((2, 2)))
    assert T.dropout(a, 0.0, np.random.default_rng(0).random((2, 2))) is a


@pytest.mark.parametrize("rate", [-0.1, 1.0])
def test_dropout_rejects_rate_outside_unit_interval(rate):
    with pytest.raises(ValueError, match=rf"^dropout: rate {rate} outside \[0, 1\)$"):
        T.dropout(_M, rate, np.ones((2, 3)))


def test_grad_linear_cross_entropy():
    rng = np.random.default_rng(20)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    targets = np.array([0, 5, 2, 2])
    for wrt in (x, w):
        check_grad(lambda: T.mean(T.linear_cross_entropy(x, T.transpose(w), targets)), wrt)


@pytest.mark.parametrize("tied", [False, True])
def test_linear_cross_entropy_equals_matmul_then_cross_entropy(tied):
    # The oracle is the head as two nodes: matmul on the transposed table,
    # then the cross entropy. Values and gradients agree to the bit, also
    # where the table feeds the rows too (tied) and over a second sweep.
    def run(head):
        rng = np.random.default_rng(21)
        table = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        rows = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        x = T.gather_rows(table if tied else rows, np.array([3, 1, 3, 8, 0]))
        nll = head(T.scale(x, 1.5), T.transpose(table), np.array([2, 2, 0, 8, 5]))
        loss = T.mean(T.add(nll, T.scale(nll, 0.25)))
        grads = []
        for _ in range(2):
            T.backward(loss)
            grads += [table.grad.copy(), None if rows.grad is None else rows.grad.copy()]
        return [nll.data] + grads

    fused = run(T.linear_cross_entropy)
    composed = run(lambda x, w, targets: C.cross_entropy_with_logits(T.matmul(x, w), targets))
    for got, want in zip(fused, composed):
        assert (got is None) == (want is None)
        if want is not None:
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("shape, idx", [
    ((5, 3), np.array([4, 0, 4, 4, 2])),
    ((5, 3), np.array([[1, 1], [3, 1]])),
    ((2, 4, 3), (np.array([1, 0, 1, 1]), np.array([3, 0, 3, 3]))),
    ((3, 2, 2), 1),
], ids=["repeated", "2d_index", "tuple", "scalar"])
def test_gather_rows_backward_equals_add_at(shape, idx):
    rng = np.random.default_rng(22)
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    out = T.gather_rows(a, idx)
    g = rng.normal(size=out.shape) * 10.0 ** rng.integers(-12, 12, size=out.shape)
    g.flat[::3] = -0.0  # a row gathered once must still come back as +0.0
    out._backward(g)
    want = np.zeros(shape)
    np.add.at(want, idx, g)
    assert a.grad.tobytes() == want.tobytes()


def _head_bytes(rows, tied):
    """The output head's losses and both sweeps' gradients, as bytes."""
    rng = np.random.default_rng(rows)
    table = Tensor(rng.normal(size=(11, 4)), requires_grad=True)
    other = Tensor(rng.normal(size=(rows, 4)), requires_grad=True)
    x = T.gather_rows(table, rng.integers(0, 11, size=rows)) if tied else other
    nll = T.linear_cross_entropy(T.scale(x, 1.5), T.transpose(table),
                                 rng.integers(0, 11, size=rows))
    loss = T.mean(T.add(nll, T.scale(nll, 0.25)))
    out = [nll.data.tobytes()]
    for _ in range(2):
        T.backward(loss)
        out += [table.grad.tobytes(), None if other.grad is None else other.grad.tobytes()]
    return out


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("rows", [4, 5, 7, 64, 129])
def test_linear_cross_entropy_split_is_bit_identical(monkeypatch, rows, tied):
    # Split, the forward runs two row halves; the backward sweeps run whole.
    runs = {}
    for cpus in (1, 2):
        calls = force_split(monkeypatch, cpus)
        runs[cpus] = _head_bytes(rows, tied)
        assert len(calls) == (1 if cpus == 2 else 0)
    assert runs[1] == runs[2]


def test_head_backward_starts_no_thread(monkeypatch):
    # The head's backward is one pass on the calling thread, even where the
    # forward splits; its gradients are the one-CPU run's to the bit. The
    # first sweep consumes the numerators, and each later sweep rebuilds
    # them whole on this thread: the second sweep adds exactly the first's.
    def run(started):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(130, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 50)), requires_grad=True)
        loss = T.mean(T.linear_cross_entropy(x, w, rng.integers(0, 50, size=130)))
        forward_threads = len(started)
        grads = []
        for _ in range(3):
            T.backward(loss)
            grads.append([x.grad.copy(), w.grad.copy()])
        assert len(started) == forward_threads
        for once, twice in zip(*grads[:2]):
            assert (2 * once).tobytes() == twice.tobytes()
        return forward_threads, [g.tobytes() for sweep in grads for g in sweep]

    threads, want = run(force_split(monkeypatch, 1))
    assert threads == 0
    threads, got = run(force_split(monkeypatch, 2))
    assert got == want
    assert threads == 1  # the forward's halves


def test_head_first_backward_allocates_no_logits_sized_array():
    # The first sweep turns the kept softmax numerators into the logits'
    # gradient in place, so its peak stays below one (rows, classes) array.
    rng = np.random.default_rng(15)
    rows, classes = 300, 4000
    x = Tensor(rng.normal(size=(rows, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(8, classes)) * 0.1, requires_grad=True)
    loss = T.mean(T.linear_cross_entropy(x, w, rng.integers(0, classes, size=rows)))
    tracemalloc.start()
    try:
        T.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows * classes * 8


def _parts(rows, width):
    """The (lo, hi) parts _split_rows runs a kernel of rows x width cells
    in, in the order they ran."""
    seen = []
    T._split_rows(lambda lo, hi: seen.append((lo, hi)), rows, width)
    return seen


def test_splits_rule(monkeypatch):
    # SC's head (about 450 rows x 200 items) stays whole, MC's buckets
    # (300-600 rows x 2,000 items) split; a half keeps 2 rows. The size
    # alone decides: one allowed CPU runs the same halves, first half
    # first, on this thread.
    started = count_threads(monkeypatch)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(T, "_allowed_cpus", lambda: cpus)
        started.clear()
        runs[cpus] = [_parts(450, 200), _parts(300, 2000), _parts(600, 2000),
                      _parts(4, T.SPLIT_CELLS // 4), _parts(3, T.SPLIT_CELLS)]
        assert len(started) == (3 if cpus == 2 else 0)
    assert [len(p) for p in runs[2]] == [1, 2, 2, 2, 1]
    assert runs[1] == [sorted(p) for p in runs[2]]


def test_split_rows_covers_each_row_once(monkeypatch):
    force_split(monkeypatch, 2)
    seen = []
    T._split_rows(lambda lo, hi: seen.append((lo, hi)), 7, 1)
    assert sorted(seen) == [(0, 3), (3, 7)]
    seen.clear()
    T._split_rows(lambda lo, hi: seen.append((lo, hi)), 3, 1)
    assert seen == [(0, 3)]


@pytest.mark.parametrize("failing_half", [0, 1])
def test_split_rows_raises_a_halfs_exception_after_join(monkeypatch, failing_half):
    force_split(monkeypatch, 2)
    before = threading.active_count()
    done = []

    def fn(lo, hi):
        if (lo > 0) == failing_half:
            raise KeyError(f"half {failing_half}")
        done.append(lo)

    with pytest.raises(KeyError, match=f"half {failing_half}"):
        T._split_rows(fn, 6, 1)
    assert done == [0 if failing_half else 3]
    assert threading.active_count() == before


def test_split_rows_worker_runs_under_callers_errstate(monkeypatch):
    force_split(monkeypatch, 2)

    def fn(lo, hi):
        if lo:  # only the worker's half divides by zero
            np.log(np.zeros(hi - lo))

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        T._split_rows(fn, 4, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="ignore"):
            T._split_rows(fn, 4, 1)


def test_split_head_leaves_no_thread(monkeypatch):
    force_split(monkeypatch, 2)
    before = threading.active_count()
    _head_bytes(64, tied=True)
    assert threading.active_count() == before


def test_split_head_bit_identical_under_frequent_thread_switches(monkeypatch):
    # A switch interval of a microsecond hands the interpreter lock between
    # the halves between almost every bytecode; the halves share no row.
    force_split(monkeypatch, 1)
    want = _head_bytes(129, tied=True)
    calls = force_split(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [_head_bytes(129, tied=True) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 5
    assert all(g == want for g in got)



def _two_operand_loss(shared_inner=False):
    """A scalar loss add(a, b) whose operands share the leaves table and w,
    and the leaves each reaches. Only b reaches bias; b's transpose and
    concat nodes hand views of their gradients to w. With shared_inner,
    both operands also read one inner node."""
    rng = np.random.default_rng(12)
    table = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    bias = Tensor(rng.normal(size=(3,)), requires_grad=True)
    x = T.gather_rows(table, [0, 2, 2, 5, 7, 1])
    a = T.mean(T.linear_cross_entropy(T.scale(x, 1.5), T.transpose(table), [1, 0, 8, 3, 3, 2]))
    xb = T.gather_rows(x, [1, 4, 5]) if shared_inner else T.gather_rows(table, [4, 2, 6])
    c = T.concat([T.add(T.matmul(xb, T.transpose(w)), bias), w])
    return T.add(a, T.mean(T.scale(c, 0.25))), [table, w, bias]


def _two_sweeps(shared_inner=False):
    loss, leaves = _two_operand_loss(shared_inner)
    out = []
    for _ in range(2):
        T.backward(loss)
        out += [t.grad.tobytes() for t in leaves]
    return out


@pytest.mark.parametrize("shared_inner", [False, True], ids=["apart", "shared"])
def test_backward_over_two_operands_bit_identical_on_two_cpus(monkeypatch, shared_inner):
    # Operands that share only leaves are swept on two threads. Operands
    # that share an inner node are swept on one thread, and the head's
    # backward inside them runs whole.
    runs = {}
    for cpus in (1, 2):
        calls = force_split(monkeypatch, cpus)
        loss, _ = _two_operand_loss(shared_inner)
        calls.clear()  # the forward's head splits
        T.backward(loss)
        assert len(calls) == (0 if cpus == 1 or shared_inner else 1)
        runs[cpus] = _two_sweeps(shared_inner)
    assert runs[1] == runs[2]


def test_backward_over_two_operands_bit_identical_under_frequent_thread_switches(monkeypatch):
    # A switch interval of a microsecond hands the interpreter lock between
    # the two sweeps between almost every bytecode.
    force_split(monkeypatch, 1)
    want = _two_sweeps()
    force_split(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [_two_sweeps() for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert all(g == want for g in got)


def test_backward_without_two_separate_operands_uses_one_thread(monkeypatch):
    calls = force_split(monkeypatch, 2)
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    loss = T.add(T.mean(T.scale(w, 2.0)), T.mean(Tensor(np.ones((2, 3)))))
    T.backward(loss)
    m = T.mean(w)
    T.backward(T.add(m, m))  # one inner node, read twice
    assert calls == []
    assert w.grad.tolist() == [[2 / 6 + 2 / 6] * 3] * 2


def _raising(x, message):
    """A node whose backward raises KeyError(message)."""
    def back(g):
        raise KeyError(message)
    return T._make(x.data.copy(), (x,), back)


@pytest.mark.parametrize("side", ["first", "second"])
def test_backward_sweep_exception_is_raised_after_join(monkeypatch, side):
    force_split(monkeypatch, 2)
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    parts = [T.mean(T.scale(w, 2.0)), T.mean(T.scale(w, 3.0))]
    index = 0 if side == "first" else 1
    parts[index] = T.mean(_raising(T.scale(w, 4.0), side))
    before = threading.active_count()
    with pytest.raises(KeyError, match=side):
        T.backward(T.add(*parts))
    assert threading.active_count() == before


def test_no_split_inside_a_concurrent_section(monkeypatch):
    calls = force_split(monkeypatch, 2)
    rng = np.random.default_rng(13)
    x, w, targets = rng.normal(size=(100, 5)), rng.normal(size=(5, 30)), rng.integers(0, 30, 100)
    want = T._linear_nll(x, w, targets)
    assert len(calls) == 1
    calls.clear()
    got = []
    T._concurrently(lambda: got.append(T._linear_nll(x, w, targets)),
                    lambda: got.append(T._linear_nll(x, w, targets)))
    assert len(calls) == 1  # the section itself
    for result in got:
        assert [r.tobytes() for r in result] == [r.tobytes() for r in want]
    assert not T._concurrent


def test_split_rows_halves_meet_at_a_block_boundary(monkeypatch):
    force_split(monkeypatch, 2)
    block = T.BLOCK_ROWS
    for rows, half in [(300, 3 * block), (7 * block, 4 * block), (block + 1, (block + 1) // 2),
                       (2 * block, block), (7, 3)]:
        seen = []
        T._split_rows(lambda lo, hi: seen.append((lo, hi)), rows, 1)
        assert sorted(seen) == [(0, half), (half, rows)], rows


@pytest.mark.parametrize("items,width", [(2, 8), (20, 8), (300, 8), (300, 32), (2001, 32)])
def test_linear_nll_rows_do_not_depend_on_the_other_rows(items, width):
    # The float64 winners recompute a subset of a table's rows; each row
    # must keep its bits, whichever rows share the product and where.
    rng = np.random.default_rng(items + width)
    w = rng.normal(size=(items, width)).T
    x = rng.normal(size=(150, width)) * 7
    targets = rng.integers(0, items, size=150)
    full = T._linear_nll(x, w, targets)
    for size in (1, 2, 13, 49, 97):
        sub = np.sort(rng.choice(150, size=size, replace=False))
        part = T._linear_nll(x[sub], w, targets[sub])
        assert part[0].tobytes() == full[0][sub].tobytes()
        assert part[1].tobytes() == full[1][sub].tobytes()
