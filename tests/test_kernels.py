"""The engine's softmax kernels against the formulas they replaced, and who
owns a gradient array.

``reference_softmax_rows`` and ``reference_softmax_grad`` are plain-numpy
copies of the two kernels as they were before they ran in place: two
``np.where`` passes, a whole-mask check up front, and a new array per
step. ``tests/composed.py``'s oracle runs the engine's own kernels, so only
these copies can tell a changed bit. The kernels must give their bytes on
every input, NaN and infinite logits included, raise their errors, and
raise no floating-point warning they did not. The in-place kernels never
compute on dropped entries, so a warning that only a dropped entry raised
(an overflow in ``exp`` of a dropped logit far above the kept ones) may
go.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from npa import tensor as T
from npa.tensor import ShapeError, Tensor


def reference_softmax_rows(x, mask=None):
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"softmax: expected non-empty rows, got shape {x.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim > x.ndim or mask.shape != x.shape[x.ndim - mask.ndim:]:
            raise ShapeError(f"softmax: mask shape {mask.shape} does not match {x.shape}")
        if not mask.any(axis=-1).all():
            raise ShapeError("softmax: a row has no unmasked entries")
        neg = np.where(mask, x, -np.inf)
        m = neg.max(axis=-1, keepdims=True)
        e = np.where(mask, np.exp(x - m), 0.0)
    else:
        m = x.max(axis=-1, keepdims=True)
        e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def reference_softmax_grad(p, g):
    inner = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - inner)


def _outcome(fn, *args):
    """(result bytes or the error's type and message, the set of warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
            got = (result.dtype, result.shape, result.tobytes())
        except ShapeError as exc:
            got = (type(exc), str(exc))
    return got, {(w.category, str(w.message)) for w in caught}


# Ordinary logits, ties, and every kind of value a row can hold: huge
# finite values, both infinities and NaN.
LOGITS = st.one_of(st.floats(-30, 30), st.sampled_from(
    [0.0, -0.0, 1.0, 1e300, -1e300, 1e308, -1e308, np.inf, -np.inf, np.nan]))


@st.composite
def softmax_inputs(draw):
    """(x, mask) with x of 1 to 4 axes; mask None, a full-shape keep mask,
    a keep mask of x's trailing axes, or the causal mask."""
    ndim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["none", "keep", "trailing", "causal"]))
    if kind == "causal" and ndim == 1:
        kind = "keep"
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=ndim - 1, max_size=ndim - 1)))
    shape += (draw(st.integers(1, 6)),)
    if kind == "causal":
        shape = shape[:-2] + (shape[-1], shape[-1])
    size = int(np.prod(shape))
    x = np.array(draw(st.lists(LOGITS, min_size=size, max_size=size))).reshape(shape)
    if kind == "none":
        return x, None
    if kind == "causal":
        return x, np.tril(np.ones(shape[-2:], dtype=bool))
    mask_shape = shape if kind == "keep" else shape[draw(st.integers(0, ndim - 1)):]
    cells = int(np.prod(mask_shape))
    mask = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    mask = mask.reshape(mask_shape)
    if draw(st.booleans()):  # usually every row keeps an entry
        mask[..., draw(st.integers(0, shape[-1] - 1))] = True
    return x, mask


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(softmax_inputs())
def test_softmax_rows_bytes_equal_the_reference(case):
    x, mask = case
    want, want_warnings = _outcome(reference_softmax_rows, x, mask)
    got, got_warnings = _outcome(T._softmax_rows, x, mask)
    assert got == want
    assert got_warnings <= want_warnings
    if mask is None:
        assert got_warnings == want_warnings


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(softmax_inputs(), st.data())
def test_softmax_grad_bytes_equal_the_reference(case, data):
    x, mask = case
    with np.errstate(all="ignore"):
        try:
            p = reference_softmax_rows(np.nan_to_num(x), mask)
        except ShapeError:
            p = reference_softmax_rows(np.nan_to_num(x))
    # Gradients at p are mostly ordinary, but may hold any logit value.
    g = np.array(data.draw(st.lists(LOGITS, min_size=p.size, max_size=p.size)))
    g = g.reshape(p.shape)
    want = _outcome(reference_softmax_grad, p, g)
    got = _outcome(T._softmax_grad, p, g)
    assert got == want


@pytest.mark.parametrize("x, mask", [
    (np.array(1.0), None),
    (np.zeros((2, 0)), None),
    (np.zeros((2, 3)), np.array([[True, False, True], [False, False, False]])),
    (np.full((2, 3), np.nan), np.zeros((2, 3), dtype=bool)),
    (np.zeros((2, 3)), np.ones((3, 2), dtype=bool)),
    (np.zeros(3), np.ones((2, 3), dtype=bool)),
], ids=["0-d", "empty rows", "a row without entries", "no row keeps an entry",
        "mask shape", "mask with more axes"])
def test_softmax_rows_errors_equal_the_reference(x, mask):
    with pytest.raises(ShapeError) as want:
        reference_softmax_rows(x, mask)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError) as got:
            T._softmax_rows(x, mask)
    assert str(got.value) == str(want.value)


def test_softmax_rows_degenerate_rows():
    # A row whose kept logits are all -inf, or hold +inf or NaN, is all NaN;
    # the other rows are unaffected.
    x = np.array([[-np.inf, -np.inf, 5.0], [np.inf, 0.0, 1.0], [np.nan, 0.0, 1.0],
                  [0.0, 1.0, 2.0]])
    mask = np.array([[True, True, False], [True, True, False], [True, True, False],
                     [True, True, False]])
    with np.errstate(invalid="ignore"):
        p = T._softmax_rows(x, mask)
    assert np.isnan(p[:3]).all()
    assert p[3].tobytes() == reference_softmax_rows(x[3:], mask[3:])[0].tobytes()


@pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 1), (2, 2, 3)])
@pytest.mark.parametrize("deferred", [False, True], ids=["direct", "deferred"])
def test_accumulate_rejects_a_gradient_of_another_shape(shape, deferred):
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    if deferred:  # as on backward's worker
        T._local.deferred = []
    try:
        with pytest.raises(ShapeError, match=r"gradient: shape .* for a tensor of shape \(2, 3\)"):
            T._accumulate(t, np.ones(shape))
        assert t.grad is None and not (deferred and T._local.deferred)
    finally:
        T._local.deferred = None


def test_accumulate_copies_a_gradient_that_is_not_fresh():
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    g = np.ones((3, 2))
    T._accumulate(t, g.T)
    T._accumulate(t, g.T)
    assert not np.shares_memory(t.grad, g)
    assert (g == 1).all() and (t.grad == 2).all()


def _graph(rng):
    """A scalar loss through scale, mean, masked_fill and dropout, where two
    leaves each feed several of them; returns (loss, every tensor)."""
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    keep = rng.random((3, 4)) < 0.5
    s = T.scale(x, 0.5)
    f = T.masked_fill(s, keep, 0.0)
    d = T.dropout(f, 0.3, rng.random((3, 4)))
    f2 = T.masked_fill(x, ~keep, 1.0)
    d2 = T.dropout(T.add(x, y), 0.2, rng.random((3, 4)))
    m1, m2, m3 = T.mean(d), T.mean(T.scale(f2, -2.0)), T.mean(d2)
    total = T.add(T.add(m1, m2), m3)
    loss = T.scale(total, 3.0)
    return loss, [x, y, s, f, d, f2, d2, m1, m2, m3, total, loss]


def test_gradients_through_scale_mean_masked_fill_and_dropout_own_their_memory():
    loss, tensors = _graph(np.random.default_rng(0))
    T.backward(loss)
    grads = [t.grad for t in tensors if t.grad is not None]
    assert len(grads) == len(tensors)
    assert all(type(g) is np.ndarray and g.shape == t.shape for g, t in zip(grads, tensors))
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
    first = [g.copy() for g in grads]
    for leaf in tensors[:2]:
        leaf.grad = None
    T.backward(loss)
    assert [t.grad.tobytes() for t in tensors] == [g.tobytes() for g in first]
