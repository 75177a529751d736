"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are float64 numpy arrays in row-major layout. Every primitive checks
its operand shapes up front and raises :class:`ShapeError` naming the
primitive and the offending shapes. When any operand has ``requires_grad``
set, the primitive records a backward closure on its output; calling
:func:`backward` on a scalar result then fills ``.grad`` on every reachable
tensor that requires gradients, accumulating additively across uses. A
backward closure runs only when some operand requires a gradient, so
single-operand primitives do not test for it.

The primitives are the ones this package's models record. Matrix multiply,
transpose, concatenate and row gather take leading batch axes, so a padded
batch or a stack of heads is one node. ``vqa.unit_forward`` records each
attention unit as one more node through ``_make``, with a backward built
on this module's private array helpers.

Inside :func:`no_grad` nothing is recorded: every primitive returns a
plain tensor with no parents and no backward closure, and runs the same
numpy operations, so every value is bit-identical to a recording pass.
:func:`backward` and training refuse to run inside it.

Graph-free calls may keep arrays built from parameter arrays alone, such
as a transposed output table or a stack of heads' projections, and reuse
them while each parameter array is the same object (``_kept``). Keeping
one makes those parameter arrays read-only: update a weight by rebinding
its tensor's ``.data``, as AdamW does, not by writing into the array. A
recording pass keeps nothing and freezes nothing.

Concurrency. Graph construction is single-threaded: the graph-free mode
is one module-wide flag, so a thread inside ``no_grad`` turns recording
off for every other thread too. Tensors are immutable after the forward
pass and may be shared read-only. Three things run on a second thread,
each through ``_concurrently``, which joins its worker before returning:
the row halves of the two forward kernels that span the catalog, the
output head's and training's float32 winner table (``_split_rows``);
training's winner table of one length bucket beside the next bucket's
forward pass; and, when the loss adds two subgraphs that share only
leaves, the sweep of the second beside the sweep of the first
(:func:`backward`). A worker calls only numpy and this module's private
helpers, and while one runs no kernel splits again, so at most two
threads run. Leaf gradients keep their order: the one-thread sweep runs
every node under the first operand before any node under the second, so
the second's worker defers its additions into leaves and the caller
makes them, in order, after the first's.
"""

from __future__ import annotations

import os
import threading
import weakref
from contextlib import contextmanager

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "add",
    "backward",
    "concat",
    "dropout",
    "gather_rows",
    "linear_cross_entropy",
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
    """A float64 array, ``data``, with its accumulated gradient ``grad``
    (None until backward fills it, which it does when ``requires_grad``)."""

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
    """Run the enclosed block without recording a graph. Re-entrant; the
    mode that held before entry is restored on any exit."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


# _kept's arrays: (key, id of each source) -> (weak references to the
# sources, the kept array).
_kept_arrays = {}


def _kept(key, sources, build):
    """build(), an array made from the parameter arrays ``sources`` alone.

    While no graph is recorded the result is kept, read-only, and returned
    again as long as each source is the same array object. Keeping it marks
    every source that owns its data read-only, so an in-place write raises
    instead of leaving a stale kept array; a tensor's ``.data`` is updated
    by rebinding it, as AdamW does, and the next call then builds afresh.
    No entry outlives a source. While a graph is recorded nothing is kept
    or marked, and build() runs on every call.
    """
    if _grad_enabled:
        return build()
    # An entry goes when one of its sources is freed, so the sources of an
    # entry found here are alive, and live arrays with these ids are these.
    ident = (key, *map(id, sources))
    entry = _kept_arrays.get(ident)
    if entry is not None:
        return entry[1]
    value = build()
    value.flags.writeable = False

    def drop(_ref):
        _kept_arrays.pop(ident, None)

    for s in sources:
        if s.flags.owndata:
            s.flags.writeable = False
    _kept_arrays[ident] = ([weakref.ref(s, drop) for s in sources], value)
    return value


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


# backward's worker sets .deferred to a list while it sweeps; it then
# collects its additions into leaves there instead of making them.
_local = threading.local()


def _accumulate(t: Tensor, g, fresh: bool = False):
    """Add g, an array of t's shape, into t.grad.

    The first gradient is copied, since g may be a view or an array handed
    to another operand. Pass ``fresh=True`` only for a new float64 array of
    t's shape that nothing else holds or will write, such as the result of
    an arithmetic operation on the incoming gradient: it is kept as t.grad
    and later gradients are added into it in place. A gradient that is not
    fresh must have t's shape, else ShapeError; a fresh one is not checked.
    On backward's worker, an addition into a leaf is deferred as a fresh
    array."""
    if not fresh and g.shape != t.data.shape:
        raise ShapeError(f"gradient: shape {g.shape} for a tensor of shape {t.data.shape}")
    if t._backward is None:
        deferred = getattr(_local, "deferred", None)
        if deferred is not None:
            deferred.append((t, g if fresh else np.array(g, dtype=np.float64)))
            return
    if t.grad is None:
        t.grad = g if fresh else np.array(g, dtype=np.float64)
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
    product's gradient g. The last leading axes that y was broadcast on and
    x was not fold into the rows of one product, so a matrix shared by a
    batch gets one product over its flattened rows; any other axis y was
    broadcast on is summed after the product."""
    if shape[:-2] == g.shape[:-2]:
        return x.swapaxes(-1, -2) @ g
    j = g.ndim - 2
    xl, yl = _lead(x.shape, j), _lead(shape, j)
    while j and yl[j - 1] == 1 and xl[j - 1] == g.shape[j - 1]:
        j -= 1
    rows = x.reshape(xl[:j] + (-1, x.shape[-1]))
    full = rows.swapaxes(-1, -2) @ g.reshape(g.shape[:j] + (-1, g.shape[-1]))
    return (_reduce(full, yl[:j] + shape[-2:]) if j else full).reshape(shape)


def matmul(a, b) -> Tensor:
    """Product of ``a`` ``(..., n, k)`` and ``b`` ``(..., k, m)`` over the last
    two axes; leading axes broadcast as in numpy, and backward sums each
    gradient over the axes its operand was broadcast on."""
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
        _accumulate(a, np.asarray(g * s), fresh=True)  # g * s is a scalar when g is 0-d

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
    """Softmax over the last axis of a numpy array, with max subtraction.

    ``mask`` (optional, True where entries participate) has the input's
    shape or its trailing axes'. Masked entries are set to -inf before the
    row max, and exp(-inf - max) is exactly 0, so they come out exactly
    zero and their logits enter no arithmetic. An empty row, or a row that
    keeps no entry, raises ShapeError. A row whose kept logits are all
    -inf or include +inf comes out all NaN with numpy's invalid-value
    warning; one whose kept logits include NaN comes out all NaN silently.
    """
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"softmax: expected non-empty rows, got shape {x.shape}")
    if mask is None:
        e = x - x.max(axis=-1, keepdims=True)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim > x.ndim or mask.shape != x.shape[x.ndim - mask.ndim:]:
            raise ShapeError(f"softmax: mask shape {mask.shape} does not match {x.shape}")
        e = np.where(mask, x, -np.inf)
        m = e.max(axis=-1, keepdims=True)
        # Only a row with no kept entry, or whose kept entries are all -inf,
        # has a -inf max.
        if np.isneginf(m).any() and not mask.any(axis=-1).all():
            raise ShapeError("softmax: a row has no unmasked entries")
        e -= m
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(p, g):
    """Gradient at the logits of rows p = softmax(...) given g at p:
    p * (g - sum(g * p)); masked entries have p == 0."""
    gp = g * p
    inner = gp.sum(axis=-1, keepdims=True)
    np.subtract(g, inner, out=gp)
    return np.multiply(p, gp, out=gp)


def mean(a) -> Tensor:
    """Mean over all entries."""
    a = _coerce(a)
    n = a.data.size
    if n == 0:
        raise ShapeError("mean: empty reduction")

    def back(g):
        _accumulate(a, np.full_like(a.data, g / n), fresh=True)

    return _make(a.data.mean(), (a,), back)


def masked_fill(a, mask, value: float) -> Tensor:
    """Replace entries where mask is True with a constant."""
    a = _coerce(a)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.data.shape:
        raise ShapeError(f"masked_fill: mask shape {mask.shape} does not match {a.data.shape}")
    out_data = np.where(mask, float(value), a.data)

    def back(g):
        _accumulate(a, np.where(mask, 0.0, g), fresh=True)

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
        _accumulate(a, _add_rows(a.data.shape, idx, g), fresh=True)

    return _make(a.data[idx], (a,), back)


def _add_rows(shape, idx, g):
    """``np.add.at(np.zeros(shape), idx, g)`` as one bincount, to the bit:
    each entry starts at 0.0 and adds its terms in index order.

    idx indexes the first axis, or is a tuple of same-shape integer arrays,
    one per leading axis; g has shape ``idx.shape + shape[len(parts):]``.
    """
    parts = idx if isinstance(idx, tuple) else (idx,)
    lead = shape[:len(parts)]
    width = int(np.prod(shape[len(parts):], dtype=np.int64))
    flat = np.ravel_multi_index(parts, lead) if len(parts) > 1 else parts[0]
    at = (np.reshape(flat, (-1, 1)) * width + np.arange(width)).ravel()
    total = int(np.prod(shape, dtype=np.int64))
    return np.bincount(at, weights=np.ravel(g), minlength=total).reshape(shape)


# _split_rows runs a kernel as two row halves on two threads when its rows
# times width reach this many cells. 2^18 lies just above the largest size
# at which a timed split of the output head was slower than one thread
# (256,000 cells) and below train_mc_temporal's buckets (600,000 cells or
# more); train_sc_anyorder's head (about 90,000) stays whole. README's
# Performance section has the measurements. Those timings split the head's
# forward and backward together; now that only forward kernels split, the
# break-even was not re-measured, so the threshold is inherited. No workload
# lies near it. Serving never reaches the split.
SPLIT_CELLS = 2 ** 18

# _linear_nll multiplies its rows in blocks of this many, the last block
# padded with zero rows, so that a row's logits do not depend on which rows
# share the product: numpy's BLAS rounds a row differently by the size of
# the call and by the row's place in it. On numpy 2.4's OpenBLAS (x86-64,
# AVX-512) no row's bits depended on its place in a block of 8, 12 or any
# multiple of 24 rows, while blocks of 16, 32 or 64 rows gave some rows
# other bits. 48 is a multiple of 24 and of 16; README's Performance
# section has the scan and the timings. _split_rows cuts at a block
# boundary where it can. This holds only with one BLAS thread
# (OPENBLAS_NUM_THREADS=1, which importing npa sets unless the process set
# a count): a threaded BLAS divides each product among its threads, and a
# row's bits can then depend on its place in the block whatever its size.
BLOCK_ROWS = 48

# True while _concurrently runs its two functions: _split_rows then runs
# whole, so no kernel starts a third thread.
_concurrent = False


def _allowed_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _concurrently(first, second):
    """Run second() on a worker thread while first() runs on this one.

    The worker runs under the caller's numpy error state, is joined before
    this returns, whichever side raised, and its exception is raised here.
    Until then _split_rows runs whole, on both threads. Workers may call
    only numpy and this package's private kernels: a benchmark tracer keeps
    one span stack and patches public functions.
    """
    global _concurrent
    errors = np.geterr()
    failed = []

    def work():
        try:
            with np.errstate(**errors):
                second()
        except BaseException as exc:  # re-raised on the caller's thread
            failed.append(exc)

    outer, _concurrent = _concurrent, True
    try:
        worker = threading.Thread(target=work)
        worker.start()
        try:
            first()
        finally:
            worker.join()
    finally:
        _concurrent = outer
    if failed:
        raise failed[0]


def _split_rows(fn, rows: int, width: int):
    """Run fn(lo, hi) over the rows [0, rows), as two halves on two threads
    when the kernel has at least 4 rows and SPLIT_CELLS rows x width cells,
    two CPUs are allowed and no other concurrent section runs; else once.
    Its kernels are forward ones: the output head's (_linear_nll) and
    training's float32 winner table. fn writes its rows of buffers the
    caller allocated (glibc gives each allocating thread its own arena).
    The halves meet at the multiple of BLOCK_ROWS nearest the middle when
    each keeps 2 rows or more, else at rows // 2; each half keeps at least
    2 rows, since numpy multiplies a single row by a matrix-vector product,
    whose rounding can differ from a matrix product's."""
    if (rows >= 4 and rows * width >= SPLIT_CELLS and not _concurrent
            and _allowed_cpus() > 1):
        half = round(rows / (2 * BLOCK_ROWS)) * BLOCK_ROWS
        if not 2 <= half <= rows - 2:
            half = rows // 2
        _concurrently(lambda: fn(0, half), lambda: fn(half, rows))
    else:
        fn(0, rows)


def _block_matmul(x, w, out):
    """out = x @ w, as products of BLOCK_ROWS rows each, the last block
    padded with zero rows: every row's values are those it gets in any
    other block."""
    n, k = x.shape
    whole = n - n % BLOCK_ROWS
    if whole:
        np.matmul(x[:whole].reshape(-1, BLOCK_ROWS, k), w,
                  out=out[:whole].reshape(-1, BLOCK_ROWS, w.shape[1]))
    if whole < n:
        pad = np.zeros((BLOCK_ROWS, k))
        pad[:n - whole] = x[whole:]
        out[whole:] = (pad @ w)[:n - whole]


def _linear_nll(x, w, targets, split: bool = True):
    """linear_cross_entropy's kernel on plain arrays: (nll, numerators, total).

    nll[t] = logsumexp(z[t]) - z[t, targets[t]] with z = x @ w, multiplied
    in blocks (_block_matmul), so that, with one BLAS thread, a row's
    values do not depend on the other rows of x (BLOCK_ROWS). The softmax
    numerators exp(z - max) are built in place in the logits buffer, and
    total holds their (rows, 1) sums. Run as two row halves (_split_rows),
    every row's arithmetic, and so every value, is the same as in one pass;
    with split=False it runs as one pass on the calling thread.
    """
    n = x.shape[0]
    z = np.empty((n, w.shape[1]))
    picked = np.empty(n)
    m = np.empty((n, 1))
    total = np.empty((n, 1))

    def part(lo, hi):
        zp = z[lo:hi]
        _block_matmul(x[lo:hi], w, zp)
        picked[lo:hi] = zp[np.arange(hi - lo), targets[lo:hi]]
        np.max(zp, axis=1, keepdims=True, out=m[lo:hi])
        np.subtract(zp, m[lo:hi], out=zp)
        np.exp(zp, out=zp)
        np.sum(zp, axis=1, keepdims=True, out=total[lo:hi])

    if split:
        _split_rows(part, n, w.shape[1])
    else:
        part(0, n)
    return np.log(total[:, 0]) + m[:, 0] - picked, z, total


def linear_cross_entropy(x, w, targets) -> Tensor:
    """Per-row negative log softmax probability of the target class of the
    logits x @ w, as one node: a 1-d tensor of row losses.

    x is (rows, k), w is (k, classes) and targets holds one class per row.
    Values and gradients are bit-identical to a matmul node followed by a
    cross-entropy node, also when w is the transpose of a table that feeds
    x too. The node keeps only the softmax numerators, and the first
    backward sweep consumes them: it turns them into the logits' gradient
    in place, so backward allocates no (rows, classes) array. A later sweep
    first recomputes them, whole and on the calling thread, to the forward's
    bits, so every sweep gives the same gradients. The forward may run as
    two row halves on two threads (_split_rows); the backward is one pass
    on one thread, the x gradient product before the w one.
    """
    x, w = _coerce(x), _coerce(w)
    targets = np.asarray(targets, dtype=np.int64)
    a, b = x.data, w.data
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0] or targets.shape != a.shape[:1]:
        raise ShapeError(f"linear_cross_entropy: got x {a.shape}, w {b.shape} "
                         f"and targets {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= b.shape[1]):
        raise ShapeError(
            f"linear_cross_entropy: target out of range for {b.shape[1]} classes")
    nll, e, total = _linear_nll(a, b, targets)

    def back(g):
        nonlocal e
        gz = e if e is not None else _linear_nll(a, b, targets, split=False)[1]
        e = None
        gz /= total
        gz *= g[:, None]
        gz[np.arange(len(targets)), targets] -= g
        if x.requires_grad:
            _accumulate(x, gz @ b.swapaxes(-1, -2), fresh=True)
        if w.requires_grad:
            _accumulate(w, a.swapaxes(-1, -2) @ gz, fresh=True)

    return _make(nll, (x, w), back)


def dropout(a, rate: float, uniforms) -> Tensor:
    """Inverted dropout over ``uniforms``, one caller-drawn value in [0, 1)
    per entry of ``a``: entries drawn below ``rate`` are zeroed and the rest
    scaled by 1 / (1 - rate). Identity when rate is 0."""
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
        _accumulate(a, np.asarray(g * m), fresh=True)

    return _make(a.data * m, (a,), back)


def _post_order(root: Tensor, seen: set) -> list:
    """The tensors needing a gradient that root reaches without passing one
    whose id is in seen, root included, each after its parents; their ids
    join seen. Iterative depth-first search: graphs can be deep for long
    baskets."""
    order = []
    stack = [(root, False)]
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
    return order


def _apart(later: list, first: list) -> bool:
    """Whether two parts of a sweep (_post_order's, later found first) both
    hold nodes with a backward closure and share none: no node of first has
    a parent with a closure in later."""
    inner = {id(n) for n in later if n._backward is not None}
    return (bool(inner) and any(n._backward is not None for n in first)
            and not any(id(p) in inner for n in first for p in n._parents))


def _sweep(nodes: list, deferred: list | None = None):
    """Run the backward closures of nodes, last first; with deferred, the
    additions into leaves are appended to it instead (_accumulate)."""
    _local.deferred = deferred
    try:
        for node in reversed(nodes):
            if node._backward is not None:
                node._backward(node.grad)
    finally:
        _local.deferred = None


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a finite scalar loss: fills ``.grad`` on every
    tensor with ``requires_grad`` reachable from ``loss``, adding across
    uses. Leaves (tensors without a backward closure) keep accumulating
    across sweeps; an inner node's ``.grad`` is cleared first, so a second
    sweep through a shared subgraph does not re-add the previous sweep's.

    Nodes run in reverse depth-first post-order from the loss, which puts
    every node under a loss's first operand before any node under its
    second. When the loss has two operands whose subgraphs share no node
    with a backward closure, and two CPUs are allowed, a worker sweeps the
    second operand's nodes while this thread sweeps the first's; the
    worker's additions into leaves are made here after both finish, in
    the order it made them, so every gradient is the one-thread sweep's.
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

    # One part per operand, the last operand's first, as a depth-first
    # search from the loss visits them.
    seen = {id(loss)}
    parts = [_post_order(p, seen) for p in reversed(loss._parents) if p.requires_grad]
    for part in parts + [[loss]]:
        for node in part:
            if node._backward is not None:
                node.grad = None
    loss.grad = np.ones_like(loss.data)
    if loss._backward is not None:
        loss._backward(loss.grad)
    if len(parts) == 2 and _allowed_cpus() > 1 and _apart(*parts):
        later, first = parts
        deferred = []
        _concurrently(lambda: _sweep(first), lambda: _sweep(later, deferred))
        for t, g in deferred:
            _accumulate(t, g, fresh=True)
    else:
        for part in reversed(parts):
            _sweep(part)
