"""Autodiff primitives that only graphs composed in the tests record.

The library's graphs never record a softmax, a log or a per-row pick on
their own: the attention unit is one hand-differentiated node and the
objective uses ``tensor.cross_entropy_with_logits``. The oracles that
compose those graphs from primitives (the per-operation unit in
``test_vqa.py``, the all-heads objective in ``test_training.py``, the
gradient objectives in ``test_model.py`` and ``test_tensor.py``) build
on these three. They run the engine's own array kernels and gradient
accumulation, so a composed graph's values and gradients are the ones
the library's nodes must reproduce to the bit.
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
