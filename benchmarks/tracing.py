"""In-memory span tracer that instruments npa from outside.

The traced run replaces public npa functions at their module attributes
with wrappers that record a span per call, and replaces each autodiff
primitive of ``npa.tensor`` with a wrapper that only counts calls (one
call builds one graph node). No library file changes: every module that
bound a function by name, including ``from x import f`` copies, gets the
wrapper, and ``uninstrument`` puts the originals back.

A span is ``(id, name, start, end, parent, op, nodes)``: ``parent`` is the
id of the enclosing span (or -1), ``op`` numbers the benchmark operation
(training step or query) the span belongs to, and ``nodes`` counts the
primitive calls made while the span was the innermost one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager, nullcontext

# (module, attribute, span name) of every public function given a span.
SPANNED = [
    ("training", "train", "training.train"),
    ("training", "sample_permutation", "training.sample_permutation"),
    ("training", "batch_loss", "training.batch_loss"),
    ("training", "sequence_scores", "training.sequence_scores"),
    ("model", "forward", "model.forward"),
    ("model", "embed_inputs", "model.embed_inputs"),
    ("model", "forward_layer", "model.forward_layer"),
    ("model", "init_params", "model.init_params"),
    ("vqa", "unit_forward", "vqa.unit_forward"),
    ("tensor", "backward", "tensor.backward"),
    ("optim", "clip_grad_norm", "optim.clip_grad_norm"),
    ("recommend", "recommend_topk", "recommend.recommend_topk"),
    ("recommend", "score_contexts", "recommend.score_contexts"),
    ("recommend", "rank_items", "recommend.rank_items"),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("data", "gen_synthetic", "data.gen_synthetic"),
    ("data", "split_dataset", "data.split_dataset"),
    ("data", "make_eval_instances", "data.make_eval_instances"),
    ("metrics", "compute_metrics", "metrics.compute_metrics"),
]
# Methods given a span: (module, class, method, span name).
SPANNED_METHODS = [("optim", "AdamW", "step", "optim.adamw_step")]
# npa.tensor exports that are not graph-building primitives.
NOT_PRIMITIVES = {"Tensor", "ShapeError", "backward", "tensor"}


class Tracer:
    """Collects spans and primitive counts while instrumentation is on."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.op = -1
        self._next_id = 0
        self._stack = [-1]  # ids of open spans; -1 is "no span"
        self._nodes = [0]  # primitive calls per open span, innermost last
        self._patches = []  # (owner, attribute, original, wrapper)
        self.totals = {}

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        self._nodes.append(0)
        return span_id

    def _close(self, span_id, name, start, end):
        self._stack.pop()
        self.spans.append((span_id, name, start, end, self._stack[-1],
                           self.op, self._nodes.pop()))

    def add(self, key, amount):
        """Accumulate a count the benchmark knows and the spans do not."""
        self.totals[key] = self.totals.get(key, 0) + amount

    @contextmanager
    def span(self, name):
        """Record a span around a block of benchmark code."""
        span_id = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, name, start, time.perf_counter())

    def _spanning(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, name, start, time.perf_counter())
        return wrapper

    def _counting(self, fn):
        nodes = self._nodes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nodes[-1] += 1
            return fn(*args, **kwargs)
        return wrapper

    def instrument(self, npa):
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            self._patches = self._build_patches(npa)
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstrument(self):
        """Restore every attribute ``instrument`` replaced."""
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    def _build_patches(self, npa):
        wrappers = {}
        for mod_name, attr, span_name in SPANNED:
            fn = getattr(getattr(npa, mod_name), attr)
            wrappers[id(fn)] = self._spanning(fn, span_name)
        tensor = npa.tensor
        for attr in tensor.__all__:
            if attr not in NOT_PRIMITIVES:
                fn = getattr(tensor, attr)
                wrappers[id(fn)] = self._counting(fn)
        patches = []
        prefix = npa.__name__ + "."
        for name, module in list(sys.modules.items()):
            if name != npa.__name__ and not name.startswith(prefix):
                continue
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patches.append((module, attr, value, wrapper))
        for mod_name, cls_name, method, span_name in SPANNED_METHODS:
            cls = getattr(getattr(npa, mod_name), cls_name)
            original = cls.__dict__[method]
            patches.append((cls, method, original, self._spanning(original, span_name)))
        return patches

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "name", "start", "end", "parent", "op", "nodes")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    enabled = False
    spans = ()
    op = -1

    def add(self, key, amount):
        pass

    def span(self, name):
        return nullcontext()

    def instrument(self, npa):
        pass

    def uninstrument(self):
        pass


def self_times(spans):
    """Map span id to its duration minus the time its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never counts an instant twice.
    """
    children = {}
    bounds = {}
    for span_id, _name, start, end, parent, *_ in spans:
        bounds[span_id] = (start, end)
        children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, (start, end) in bounds.items():
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def inclusive_nodes(spans):
    """Map span id to the primitive calls made inside it, children included."""
    total = {span[0]: span[6] for span in spans}
    # Spans close children-first, so one pass in close order rolls counts up.
    for span_id, _name, _start, _end, parent, _op, _nodes in spans:
        if parent >= 0:
            total[parent] = total.get(parent, 0) + total[span_id]
    return total
