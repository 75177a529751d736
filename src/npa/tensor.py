"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are float64 numpy arrays in row-major layout. Every primitive checks
its operand shapes up front and raises :class:`ShapeError` naming the
primitive and the offending shapes. When any operand has ``requires_grad``
set, the primitive records a backward closure on its output; calling
:func:`backward` on a scalar result then fills ``.grad`` on every reachable
tensor that requires gradients, accumulating additively across uses.

Matrix multiply, transpose, concatenate and row gather take optional
leading batch axes, so a batch of padded sequences is one ``(B, N, d)``
tensor in one graph, and a single sequence runs the same code without the
leading axis. Matrix multiply broadcasts leading axes as numpy does:
stacked heads' weights ``(H, 1, k, m)`` meet a ``(B, N, k)`` batch in one
product. A weight shared across the batch stays 2-d (or one matrix per
head), and its gradient is one product over the flattened rows. ``add``
broadcasts an operand over leading axes that only the other has.

The primitives are the ones the models of this package record: matrix
multiply, transpose, add, scale, concatenate along the last axis, mean
over all entries, masked fill, reshape, row gather, cross entropy with
logits, and inverted dropout. One more node kind completes the graphs:
``vqa.unit_forward`` records each attention unit as a single node through
``_make``, with a backward written out from the unit's equations on this
module's array helpers (``_accumulate``, ``_right_grad``, ``_reduce``,
and the masked row softmax ``_softmax_rows`` with its gradient
``_softmax_grad``). A backward closure runs only when some operand
requires a gradient, so single-operand primitives do not test for it.

Inside the :func:`no_grad` context nothing is recorded: every primitive
returns a plain tensor with no parents and no backward closure, whatever
its operands' ``requires_grad``. The same numpy operations run, so every
value is bit-identical to a recording pass. Inference uses it (top-k
recommendation, evaluation, attention export); :func:`backward` and
training refuse to run inside it.

Single-threaded by contract: graph construction and backward are not
thread safe, but tensors are immutable after the forward pass and may be
shared read-only. The graph-free mode is one module-wide flag, not a
per-thread one, so a thread inside ``no_grad`` turns recording off for
every other thread too.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "add",
    "backward",
    "concat",
    "cross_entropy_with_logits",
    "dropout",
    "gather_rows",
    "masked_fill",
    "matmul",
    "mean",
    "no_grad",
    "reshape",
    "scale",
    "transpose",
]


class ShapeError(ValueError):
    """Operand shapes do not conform for a primitive."""


class Tensor:
    """A float64 array plus optional gradient bookkeeping.

    Attributes:
        data: the numpy value, row-major float64.
        requires_grad: whether backward should populate ``grad``.
        grad: accumulated gradient, same shape as ``data``, or None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# False inside no_grad(): primitives then record no graph.
_grad_enabled = True


@contextmanager
def no_grad():
    """Run the enclosed block without recording a graph.

    Re-entrant; on exit, normal or by exception, the mode that held before
    entry is restored.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data, parents, backward_fn) -> Tensor:
    """Build an op result, recording the graph only when a parent needs it
    and no_grad is not in force."""
    if not _grad_enabled:
        return Tensor(data)
    needs = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t: Tensor, g, fresh: bool = False):
    """Add g into t.grad.

    The first gradient is copied, since g may be a view or the same array
    handed to another operand; ``fresh=True`` promises that g is a new
    float64 array of t's shape that nothing else holds, and keeps it.
    """
    if t.grad is None:
        t.grad = g if fresh else np.array(np.broadcast_to(g, t.data.shape), dtype=np.float64)
    else:
        t.grad += g


def _lead(shape, axes: int):
    """The leading axes of ``shape``, padded with 1s on the left to ``axes``."""
    return (1,) * (axes + 2 - len(shape)) + tuple(shape[:-2])


def _reduce(full, shape):
    """Sum a gradient over the axes an operand of ``shape`` was broadcast
    on, then view it in that shape."""
    lead = _lead(shape, full.ndim - 2)
    axes = tuple(i for i, n in enumerate(lead) if n == 1 and full.shape[i] != 1)
    return (full.sum(axis=axes, keepdims=True) if axes else full).reshape(shape)


def _right_grad(x, g, shape):
    """Gradient of y, the right operand of x @ y, of ``shape``, given the
    product's gradient g.

    The last leading axes that y was broadcast on and x was not fold into
    the rows of one product: a matrix shared by a batch gets one product
    over the batch's flattened rows, per head of a stack. Any other axis y
    was broadcast on is summed after the product.
    """
    if shape[:-2] == g.shape[:-2]:
        return x.swapaxes(-1, -2) @ g
    j = g.ndim - 2
    xl, yl = _lead(x.shape, j), _lead(shape, j)
    while j and yl[j - 1] == 1 and xl[j - 1] == g.shape[j - 1]:
        j -= 1
    rows = x.reshape(xl[:j] + (-1, x.shape[-1]))
    full = rows.swapaxes(-1, -2) @ g.reshape(g.shape[:j] + (-1, g.shape[-1]))
    return _reduce(full, yl[:j] + shape[-2:]).reshape(shape)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in numpy.

    ``a`` is ``(..., n, k)`` and ``b`` ``(..., k, m)``. Backward sums each
    gradient over the axes its operand was broadcast on; a weight shared
    by a batch gets one product over the batch's flattened rows.
    """
    a, b = _coerce(a), _coerce(b)
    x, y = a.data, b.data
    try:
        if x.ndim < 2 or y.ndim < 2:
            raise ValueError("matmul needs two or more axes")  # numpy would take vectors
        out_data = x @ y
    except ValueError:
        raise ShapeError(f"matmul: shapes {x.shape} and {y.shape} not conformable") from None

    def back(g):
        if a.requires_grad:
            ga = g @ y.swapaxes(-1, -2)
            _accumulate(a, ga if ga.shape == x.shape else _reduce(ga, x.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _right_grad(x, g, y.shape), fresh=True)

    return _make(out_data, (a, b), back)


def transpose(a) -> Tensor:
    """Swap the last two axes of a tensor with two or more axes."""
    a = _coerce(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: expected 2 or more axes, got shape {a.data.shape}")

    def back(g):
        _accumulate(a, g.swapaxes(-1, -2))

    return _make(a.data.swapaxes(-1, -2), (a,), back)


def _sum_to(g, shape):
    """Sum g over the leading axes it has beyond ``shape``."""
    if g.shape == shape:
        return g
    return g.reshape((-1,) + shape).sum(axis=0)


def add(a, b) -> Tensor:
    """Elementwise sum; an operand whose shape is the other's trailing
    shape is broadcast over the other's leading axes."""
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    short, full = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if full[len(full) - len(short):] != short:
        raise ShapeError(f"add: shapes {sa} and {sb} differ")

    def back(g):
        if a.requires_grad:
            _accumulate(a, _sum_to(g, sa))
        if b.requires_grad:
            _accumulate(b, _sum_to(g, sb))

    return _make(a.data + b.data, (a, b), back)


def scale(a, s: float) -> Tensor:
    """Multiply a tensor by a python scalar."""
    a = _coerce(a)
    s = float(s)

    def back(g):
        _accumulate(a, g * s)

    return _make(a.data * s, (a,), back)


def concat(parts) -> Tensor:
    """Concatenate same-rank tensors along the last axis; every other axis
    must agree."""
    parts = [_coerce(p) for p in parts]
    if not parts:
        raise ShapeError("concat: no operands")
    if len({p.data.shape[:-1] for p in parts}) != 1 or any(p.data.ndim == 0 for p in parts):
        raise ShapeError(f"concat: mismatched shapes {[p.data.shape for p in parts]} "
                         "off the last axis")
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[..., lo:hi])

    return _make(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), back)


def _softmax_rows(x, mask=None):
    """Softmax over the last axis of a numpy array, with max subtraction;
    masked entries get exactly zero.

    ``mask`` is an optional boolean array, True where entries participate,
    of the input's shape or of its trailing axes (then shared across the
    leading ones). Every row must keep at least one entry.
    """
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


def _softmax_grad(p, g):
    """Gradient at the logits of rows p = softmax(...) given g at p:
    p * (g - sum(g * p)); masked entries have p == 0."""
    inner = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - inner)


def mean(a) -> Tensor:
    """Mean over all entries."""
    a = _coerce(a)
    n = a.data.size
    if n == 0:
        raise ShapeError("mean: empty reduction")

    def back(g):
        _accumulate(a, np.full_like(a.data, g / n))

    return _make(a.data.mean(), (a,), back)


def masked_fill(a, mask, value: float) -> Tensor:
    """Replace entries where mask is True with a constant."""
    a = _coerce(a)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.data.shape:
        raise ShapeError(f"masked_fill: mask shape {mask.shape} does not match {a.data.shape}")
    out_data = np.where(mask, float(value), a.data)

    def back(g):
        _accumulate(a, np.where(mask, 0.0, g))

    return _make(out_data, (a,), back)


def reshape(a, shape) -> Tensor:
    """View the same row-major data under a new shape."""
    a = _coerce(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}")

    def back(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), back)


def gather_rows(a, idx) -> Tensor:
    """Select entries along the leading axes of a tensor; entries may repeat.

    ``idx`` is an integer array of any shape indexing the first axis, giving
    ``idx.shape + a.shape[1:]``, or a tuple of same-shape integer arrays,
    one per leading axis: ``gather_rows(a, (bs, ts))`` picks the rows
    ``a[bs[i], ts[i]]`` of a ``(B, N, d)`` tensor as one ``(len(bs), d)``.
    """
    a = _coerce(a)
    if isinstance(idx, tuple):
        idx = tuple(np.asarray(p, dtype=np.int64) for p in idx)
        parts = idx
    else:
        idx = np.asarray(idx, dtype=np.int64)
        parts = (idx,)
    if len(parts) > a.data.ndim or any(p.shape != parts[0].shape for p in parts):
        raise ShapeError(f"gather_rows: cannot index data {a.data.shape} with "
                         f"{[p.shape for p in parts]}")
    for p, size in zip(parts, a.data.shape):
        if p.size and (p.min() < 0 or p.max() >= size):
            raise ShapeError(f"gather_rows: index out of range for {size} rows")

    def back(g):
        acc = np.zeros_like(a.data)
        np.add.at(acc, idx, g)
        _accumulate(a, acc)

    return _make(a.data[idx], (a,), back)


def cross_entropy_with_logits(logits, targets) -> Tensor:
    """Per-row negative log softmax probability of the target class.

    Numerically stable: nll[t] = logsumexp(logits[t]) - logits[t, target[t]].
    Returns a 1-d tensor of row losses.
    """
    logits = _coerce(logits)
    targets = np.asarray(targets, dtype=np.int64)
    x = logits.data
    if x.ndim != 2 or targets.shape != (x.shape[0],):
        raise ShapeError(f"cross_entropy: got logits {x.shape} and targets {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= x.shape[1]):
        raise ShapeError(f"cross_entropy: target out of range for {x.shape[1]} classes")
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
        _accumulate(logits, gx, fresh=True)

    return _make(out_data, (logits,), back)


def dropout(a, rate: float, uniforms) -> Tensor:
    """Inverted dropout over caller-drawn uniforms; identity when rate is 0.

    ``uniforms`` holds one draw in [0, 1) per entry of ``a``: entries drawn
    below ``rate`` are zeroed and the rest scaled by 1 / (1 - rate).
    """
    a = _coerce(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    if rate == 0.0:
        return a
    uniforms = np.asarray(uniforms)
    if uniforms.shape != a.data.shape:
        raise ShapeError(f"dropout: draws of shape {uniforms.shape} for data {a.data.shape}")
    m = (uniforms >= rate) / (1.0 - rate)

    def back(g):
        _accumulate(a, g * m)

    return _make(a.data * m, (a,), back)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a finite scalar loss.

    Populates ``.grad`` on every tensor with ``requires_grad`` reachable
    from ``loss``. Gradients add across multiple uses of the same tensor.
    Leaves (tensors without a backward closure) keep accumulating across
    sweeps; an inner node's ``.grad`` is cleared first, so a second sweep
    through a shared subgraph does not re-add the previous sweep's.
    """
    if not _grad_enabled:
        raise RuntimeError("backward: called inside no_grad, which records no graph")
    if not isinstance(loss, Tensor) or loss.data.ndim != 0:
        got = loss.data.shape if isinstance(loss, Tensor) else type(loss)
        raise ShapeError(f"backward: loss must be a scalar tensor, got {got}")
    if not np.isfinite(loss.data):
        raise FloatingPointError("backward: loss is not finite")
    if not loss.requires_grad:
        return

    # Iterative topological order (graphs can be deep for long baskets).
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    for node in order:
        if node._backward is not None:
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
