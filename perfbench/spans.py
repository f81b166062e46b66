"""In-memory spans around the calls into each uqsl module.

The benchmark wraps the public functions of every layer from outside the
package (class and module attributes are swapped for timing wrappers and put
back afterwards), so ``src/uqsl`` stays untouched.  Two kinds of wrapper:

* span wrappers record one span per call: name, start, end and the index of
  the enclosing span;
* hot wrappers (ring and flag-polynomial arithmetic, millions of calls) keep
  only a per-parent aggregate of calls, total and self time, which bounds
  memory.

Self time is span time minus the time of the wrapped calls made inside it,
kept on a stack while the calls run.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from contextlib import contextmanager

# Every BulkError message raised from BulkEngine.combo_residual at the
# commit this benchmark was written against; a message outside the list is
# counted under bulk.fallback.other.
BULK_FALLBACK_REASONS = (
    "momentum registry full",
    "occupation registry full",
    "empty scalar",
    "mixed symbol content in one scalar",
    "exponent outside packed range",
    "numerator outside packed range",
    "denominator power above target",
    "flow scalar carries symbol content",
    "flow numerator outside packed range",
    "bucket scalar carries symbol content",
    "bucket numerator outside packed range",
    "denominator deficit outside packed range",
    "group registry full",
    "meta registry full",
    "exponent field overflow",
    "row value overflow",
    "stage sum bound exceeded",
    "aggregate exponent below packed range",
    "aggregate exponent above packed range",
    "mixed denominator powers across groups",
    "Gamma exponent without a Gamma slot",
)


def slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent span index or -1]
        self.totals = {}    # name -> [calls, total_s, self_s]
        self.leaves = {}    # (parent name, name) -> [calls, total_s, self_s]
        self.counters = Counter()
        self._stack = []    # open calls: [name, child_s, span index or -1]

    def _close(self, name, frame, t0, t1, parent):
        dt = t1 - t0
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dt
        tot[2] += dt - frame[1]
        if parent is not None:
            parent[1] += dt
        return dt

    def wrap(self, name: str, fn, hot: bool = False):
        """fn with every call recorded under name."""
        clock = time.perf_counter
        stack = self._stack
        if hot:
            leaves = self.leaves

            def traced(*args, **kwargs):
                parent = stack[-1] if stack else None
                frame = [name, 0.0, -1]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    dt = self._close(name, frame, t0, t1, parent)
                    key = (parent[0] if parent else "", name)
                    agg = leaves.get(key)
                    if agg is None:
                        agg = leaves[key] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame[1]
        else:

            def traced(*args, **kwargs):
                parent, span, frame = self._open(name)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._end(name, parent, span, frame, t0, clock())

        traced.__wrapped__ = fn
        return traced

    def _open(self, name):
        stack = self._stack
        parent = stack[-1] if stack else None
        span = [name, 0.0, 0.0, parent[2] if parent else -1]
        frame = [name, 0.0, len(self.spans)]
        self.spans.append(span)
        stack.append(frame)
        return parent, span, frame

    def _end(self, name, parent, span, frame, t0, t1):
        self._stack.pop()
        span[1], span[2] = t0, t1
        self._close(name, frame, t0, t1, parent)

    @contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        parent, span, frame = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._end(name, parent, span, frame, t0, time.perf_counter())

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "totals": self.totals,
            "leaves": [[p, n, *v] for (p, n), v in sorted(self.leaves.items())],
            "counters": dict(self.counters),
        }


def _bulk_counted(counters: Counter, fn, bulk_error):
    """combo_residual that counts accepts and fallbacks, re-raising each
    BulkError after filing it under its message."""
    counters["bulk.fallback_wasted_s"] = 0.0
    known = set(BULK_FALLBACK_REASONS)

    def combo_residual(self, jobs, state):
        t0 = time.perf_counter()
        try:
            out = fn(self, jobs, state)
        except bulk_error as exc:
            msg = str(exc)
            counters["bulk.fallbacks"] += 1
            counters["bulk.fallback." + (slug(msg) if msg in known else "other")] += 1
            counters["bulk.fallback_wasted_s"] += time.perf_counter() - t0
            raise
        counters["bulk.accepts"] += 1
        return out

    return combo_residual


def _numeric_counted(counters: Counter, fn):
    def numeric_check(*args, **kwargs):
        out = fn(*args, **kwargs)
        counters["report.numeric_check.pairs"] += out["pairs"]
        return out

    return numeric_check


def instrument(tracer: Tracer, with_finite: bool):
    """Swap the layer entry points for traced wrappers; returns a function
    that puts the originals back."""
    from uqsl import affine, bulk, currents, grassmann, ring
    R = ring.RingElem

    # (owner, attribute, span name, hot, extra wrapper applied first)
    targets = [
        (R, "__mul__", "ring.mul", True, None),
        (R, "__rmul__", "ring.mul", True, None),
        (R, "__add__", "ring.add", True, None),
        (R, "__radd__", "ring.add", True, None),
        (R, "__sub__", "ring.add", True, None),
        (R, "__rsub__", "ring.add", True, None),
        (R, "__neg__", "ring.add", True, None),
        (R, "subst_numeric", "ring.subst_numeric", True, None),
        (R, "__str__", "ring.str", True, None),
        (ring, "verify_bracket_identity", "ring.verify_bracket_identity", False, None),
        (affine, "apply_oscillator", "oscillators.apply_oscillator", False, None),
        (currents.VertexEngine, "extract", "currents.extract", False, None),
        (currents.VertexEngine, "extract_sum", "currents.extract_sum", False, None),
        (currents.VertexEngine, "fuse", "currents.fuse", True, None),
        (bulk.BulkEngine, "combo_residual", "bulk.combo_residual", False,
         lambda fn: _bulk_counted(tracer.counters, fn, bulk.BulkError)),
        (affine.AffineContext, "mode_vec", "affine.mode_vec", False, None),
        (affine.AffineContext, "h_vec", "affine.h_vec", False, None),
        (affine.AffineContext, "combo_zero", "affine.combo_zero", False, None),
        (affine.AffineContext, "combo_vec", "affine.combo_vec", False, None),
        (affine, "numeric_check", "report.numeric_check", False,
         lambda fn: _numeric_counted(tracer.counters, fn)),
        (grassmann.SuperPoly, "__mul__", "grassmann.mul", True, None),
        (grassmann.SuperPoly, "qshift", "grassmann.qshift", True, None),
        (grassmann.SuperPoly, "dx", "grassmann.dx", True, None),
    ]
    if with_finite:
        from uqsl import finite
        targets += [
            (finite, "numeric_check", "report.numeric_check", False,
             lambda fn: _numeric_counted(tracer.counters, fn)),
            (finite, "basis_upto", "grassmann.basis_upto", False, None),
            (finite.QDiffOp, "apply", "finite.qdiff_apply", True, None),
        ]
    saved = []
    for owner, attr, name, hot, pre in targets:
        orig = owner.__dict__[attr]
        fn = pre(orig) if pre else orig
        saved.append((owner, attr, orig))
        setattr(owner, attr, tracer.wrap(name, fn, hot))

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return restore
