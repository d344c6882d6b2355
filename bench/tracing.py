"""In-memory spans recorded around calls into beable_sim, from the benchmark side.

A Tracer replaces public names, as the calling module sees them (a module
attribute such as ``beable_sim.config.diagonalize``, or a method on a public
class), with timing wrappers; its ``patched()`` block restores them on exit.
Nothing in the package itself is instrumented, so a later change that
deletes a private helper cannot break the trace.

Each ordinary span keeps its name, parent span, start and end. Hot leaf
spans (velocity evaluations, cell lookups, distribution enumerations) are
folded into per-(name, parent name) totals instead, and only add their
time to the parent's covered time. A span's self time is its duration
minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import pickle
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans of one benchmark phase, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, parent index or None, start, end, child time]
        self.leaves = {}       # (name, parent name or None) -> [count, total seconds]
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, perf_counter(), 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent][4] += record[3] - record[2]

    def _leaf(self, name: str, seconds: float):
        parent = self._stack[-1] if self._stack else None
        key = (name, self.spans[parent][0] if parent is not None else None)
        total = self.leaves.setdefault(key, [0, 0.0])
        total[0] += 1
        total[1] += seconds
        if parent is not None:
            self.spans[parent][4] += seconds

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attribute: str, name: str):
        """Record every call of ``owner.attribute`` as an ordinary span."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patch(owner, attribute, original, traced)

    def wrap_leaf(self, owner, attribute: str, name: str):
        """Record every call of ``owner.attribute`` as an aggregated leaf."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._leaf(name, perf_counter() - t0)

        self._patch(owner, attribute, original, traced)

    def wrap_velocities(self, field_class, name: str):
        """Aggregate ``field_class.velocities``, splitting the first call per
        (field, cell tuple) into ``<name>.first`` from the warm calls."""
        original = field_class.velocities
        seen = weakref.WeakKeyDictionary()

        @functools.wraps(original)
        def traced(field, coeff, lam, cells, time):
            tuples = seen.setdefault(field, set())
            first = cells not in tuples
            tuples.add(cells)
            t0 = perf_counter()
            try:
                return original(field, coeff, lam, cells, time)
            finally:
                self._leaf(name + ".first" if first else name, perf_counter() - t0)

        self._patch(field_class, "velocities", original, traced)

    def _patch(self, owner, attribute, original, replacement):
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    @contextmanager
    def patched(self):
        """Restore every name wrapped so far when the block exits."""
        try:
            yield self
        finally:
            while self._patches:
                owner, attribute, original = self._patches.pop()
                setattr(owner, attribute, original)

    # -- summaries -----------------------------------------------------------

    def count(self, name: str) -> int:
        return (sum(1 for s in self.spans if s[0] == name)
                + sum(v[0] for (n, _), v in self.leaves.items() if n == name))

    def total(self, name: str) -> float:
        return (sum(s[3] - s[2] for s in self.spans if s[0] == name)
                + sum(v[1] for (n, _), v in self.leaves.items() if n == name))

    def self_time(self, name: str) -> float:
        return sum(s[3] - s[2] - s[4] for s in self.spans if s[0] == name)

    def leaf_count(self, name: str, parent: str) -> int:
        return self.leaves.get((name, parent), [0, 0.0])[0]


def counting_pool(sizes: list):
    """A ProcessPoolExecutor subclass that appends the pickled size of every
    submitted call to ``sizes``; swapped in for the name a module uses to
    create its pool."""

    class CountingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            sizes.append(len(pickle.dumps((fn, args, kwargs))))
            return super().submit(fn, *args, **kwargs)

    return CountingPool
