"""A fixed yardstick for the speed the host gives this process.

On a shared virtual machine the speed of a single-threaded process drifts,
from one second to the next and from one minute to the next, by a quarter
and more, while the process keeps its CPU (process CPU time tracks wall
time). An operation's wall time then measures the neighbours as much as the
program. The benchmark therefore runs a fixed kernel between operations and
scales each operation's time by the kernel's time around it. Its timing
metrics are in reference seconds: seconds at the speed at which the kernel
takes ``REFERENCE_S``.

The kernel is the benchmark's own code and imports nothing from npa, so a
change to the library moves the operations and not the yardstick. It mixes
what the workloads do: Python object churn around small numpy operations,
as in autodiff bookkeeping, and a wide matrix product with a sort, as in
an output head or top-k scoring.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# About the kernel's median time, run alone, on a 2-vCPU Xeon virtual
# machine (2.0 GHz nominal, Python 3.11, numpy 2.4 with OpenBLAS on one
# thread).
REFERENCE_S = 0.005
# Between operations, the kernel runs again once this much time has passed.
INTERVAL_S = 0.1

_SMALL = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_WIDE = np.cos(np.arange(16384 * 32, dtype=np.float64)).reshape(16384, 32)


class _Node:
    __slots__ = ("value", "parents", "backward")

    def __init__(self, value, parents, backward):
        self.value = value
        self.parents = parents
        self.backward = backward


def kernel(rounds=300):
    """Fixed work; returns a number so that none of it can be skipped."""
    nodes = [_Node(_SMALL, (), None)]
    for i in range(rounds):
        x = nodes[-1].value
        y = np.tanh(x * 0.5 + 0.01 * i) @ _SMALL
        nodes.append(_Node(y, (nodes[-1],), lambda g, y=y: g * (1.0 - y * y)))
    grad = np.ones_like(_SMALL)
    for node in reversed(nodes[1:]):
        grad = node.backward(grad)
    scores = _WIDE @ nodes[-1].value.reshape(-1)[:32]
    top = np.argsort(-scores, kind="stable")[:100]
    return float(grad.sum()) + float(scores[top].sum())


class Yardstick:
    """Kernel times taken between operations, and the scale they give."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self._last = -float("inf")

    def measure(self, runs=1):
        """Run the kernel ``runs`` times and record the median time as one
        sample; returns the sample's index."""
        # The kernel makes no reference cycles. With the collector on, its
        # allocations could start a collection over the program's heap, and
        # the yardstick would grow with the program's memory.
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(runs):
                started = time.perf_counter()
                kernel()
                self._last = time.perf_counter()
                times.append(self._last - started)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(times))
        return len(self.samples) - 1

    def tick(self):
        """Call before an operation: runs the kernel when ``interval`` has
        passed since its last run, and returns the index of the sample the
        operation follows."""
        if time.perf_counter() - self._last >= self.interval:
            self.measure()
        return len(self.samples) - 1

    def scale(self, index):
        """Reference seconds per wall second for an operation that followed
        sample ``index``: the mean of that sample and the next one, which
        ``measure`` must have taken after the operation."""
        around = self.samples[index:index + 2]
        return REFERENCE_S * len(around) / sum(around)
