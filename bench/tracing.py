"""Spans around calls into the qbsde modules, recorded from outside the package.

A ``Tracer`` replaces public callables where the program looks them up (a
module attribute such as ``solver.make_regression``, or a method on a class
such as ``NodeRegression.fit``) by a wrapper that records one span per call:
name, start, end and the index of the enclosing span.  Counters (rows,
columns, bytes) are accumulated at the same boundaries.  ``uninstall``
restores every original, so an untraced round runs the unmodified program.
"""

from __future__ import annotations

import collections
import functools
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.outermost: list[bool] = []  # no enclosing span of the same name
        self.counts: collections.Counter = collections.Counter()
        self.maxima: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._active: collections.Counter = collections.Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.outermost.append(self._active[name] == 0)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._active[self.spans[idx][0]] -= 1

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def count(self, key: str, value: float) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, measure=None, skip_under: str | None = None):
        """Wrapper recording a ``name`` span per call of ``fn``.

        ``measure(tracer, args, result)`` adds counters after the call;
        ``skip_under`` names a span directly inside which calls go unrecorded.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == skip_under:
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if measure is not None:
                measure(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, measure=None, skip_under: str | None = None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, measure, skip_under))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------

    def layer_times(self) -> tuple[dict, dict, dict]:
        """Per span name: inclusive time (outermost spans only), self time,
        and number of outermost spans; absent names read 0."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = collections.defaultdict(float)
        self_time: dict[str, float] = collections.defaultdict(float)
        calls: dict[str, int] = collections.defaultdict(int)
        for k, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child[k]
            if self.outermost[k]:
                inclusive[name] += end - start
                calls[name] += 1
        return inclusive, self_time, calls

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "columns": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "maxima": self.maxima,
                },
                fh,
            )


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one traced call adds over a plain call, timed on a no-op."""

    def noop(*args):
        return None

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn(1, 2)
        return (time.perf_counter() - start) / calls

    traced = Tracer().wrap("noop", noop, measure=lambda t, args, result: t.count("noop", 1))
    return statistics.median(per_call(traced) - per_call(noop) for _ in range(repeats))
