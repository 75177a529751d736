"""Autodiff primitives that only graphs composed in the tests record.

The library's graphs never record a softmax, a log, a per-row pick or a
cross entropy over a logits tensor on their own: the attention unit is
one hand-differentiated node and the objective's output head is
``tensor.linear_cross_entropy``, a matrix product and its cross entropy
as one node. The oracles that compose those graphs from primitives (the
per-operation unit in ``test_vqa.py``, the all-heads objective in
``test_training.py``, the gradient objectives in ``test_model.py`` and
``test_tensor.py``, and the output head as ``matmul`` + ``transpose`` +
``cross_entropy_with_logits``) build on these four. They run the
engine's own array kernels and gradient accumulation, so a composed
graph's values and gradients are the ones the library's nodes must
reproduce to the bit.
"""

import numpy as np

from npa import tensor as T


def softmax(a, mask=None) -> T.Tensor:
    """Softmax over the last axis with max subtraction; masked entries get
    exactly zero.

    Every leading index is an independent row, and a 1-d input is a single
    row. ``mask`` is an optional boolean array, True where entries
    participate, of the input's shape or of its trailing axes (then shared
    across the leading ones). Every row must keep at least one entry.
    """
    a = T._coerce(a)
    p = T._softmax_rows(a.data, mask)

    def back(g):
        T._accumulate(a, T._softmax_grad(p, g), fresh=True)

    return T._make(p, (a,), back)


def log(a) -> T.Tensor:
    """Natural logarithm, elementwise."""
    a = T._coerce(a)

    def back(g):
        T._accumulate(a, g / a.data)

    return T._make(np.log(a.data), (a,), back)


def take_per_row(a, idx) -> T.Tensor:
    """Pick one entry per row along the last axis: out[..., t] = a[..., t, idx[..., t]]."""
    a = T._coerce(a)
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim < 2 or idx.shape != a.data.shape[:-1]:
        raise T.ShapeError(f"take_per_row: got data {a.data.shape} and index {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[-1]):
        raise T.ShapeError(
            f"take_per_row: column index out of range for {a.data.shape[-1]} columns")
    cols = idx[..., None]

    def back(g):
        acc = np.zeros_like(a.data)
        np.put_along_axis(acc, cols, g[..., None], axis=-1)
        T._accumulate(a, acc)

    return T._make(np.take_along_axis(a.data, cols, axis=-1)[..., 0], (a,), back)


def cross_entropy_with_logits(logits, targets) -> T.Tensor:
    """Per-row negative log softmax probability of the target class.

    Numerically stable: nll[t] = logsumexp(logits[t]) - logits[t, target[t]].
    Returns a 1-d tensor of row losses.
    """
    logits = T._coerce(logits)
    targets = np.asarray(targets, dtype=np.int64)
    x = logits.data
    if x.ndim != 2 or targets.shape != (x.shape[0],):
        raise T.ShapeError(f"cross_entropy: got logits {x.shape} and targets {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= x.shape[1]):
        raise T.ShapeError(f"cross_entropy: target out of range for {x.shape[1]} classes")
    m = x.max(axis=1, keepdims=True)
    e = x - m
    np.exp(e, out=e)
    total = e.sum(axis=1, keepdims=True)
    lse = np.log(total[:, 0]) + m[:, 0]
    rows = np.arange(x.shape[0])
    out_data = lse - x[rows, targets]

    def back(g):
        gx = e / total
        gx *= g[:, None]
        gx[rows, targets] -= g
        T._accumulate(logits, gx, fresh=True)

    return T._make(out_data, (logits,), back)
