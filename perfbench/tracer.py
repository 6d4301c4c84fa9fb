"""Spans recorded from outside the program, by swapping in timing wrappers.

A :class:`Tracer` replaces module attributes and class methods with wrappers
that record one span per call: its name, start, end, the span that was open
when it began (its parent) and the operation it belongs to. Spans stay in
memory. Self time is a span's duration minus the time its child spans cover.

Operations are the units the per-layer metrics are reported per: one query,
one training step, one search. The benchmark opens them with :meth:`op`; a
wrapper made with ``starts_op`` opens a new one each time it is called, which
is how the steps inside ``train()`` are told apart without forking it.

Every wrapper is put back by :meth:`restore`, which the context manager calls
on exit, also when the run raises.
"""
from __future__ import annotations

import functools
import inspect
import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_of: list[int] = []
        self.selfs: list[float] = []
        self.values: list[float] = []
        self.op_kinds: list[str] = []
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._op = -1
        self._patches: list[tuple] = []
        self._members: list[list[int]] = []

    # -- recording ----------------------------------------------------------

    def _begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self._op)
        self.ends.append(0.0)
        self.selfs.append(0.0)
        self.values.append(0.0)
        self._stack.append(i)
        self._child_time.append(0.0)
        self.starts.append(perf_counter())
        return i

    def _end(self, i: int) -> None:
        end = perf_counter()
        self.ends[i] = end
        self._stack.pop()
        children = self._child_time.pop()
        duration = end - self.starts[i]
        self.selfs[i] = duration - children
        if self._child_time:
            self._child_time[-1] += duration

    def new_op(self, kind: str) -> None:
        self.op_kinds.append(kind)
        self._op = len(self.op_kinds) - 1

    @contextmanager
    def op(self, kind: str):
        """Attribute every span begun inside the block to one new operation."""
        self.new_op(kind)
        try:
            yield
        finally:
            self._op = -1

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name, observe=None, starts_op: str | None = None):
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``name`` is a span name, or a function of (args, kwargs) giving one.
        ``observe(args, out)`` returns a number stored with the span, such as
        the length of what the call returned.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            func, rewrap = raw.__func__, type(raw)
        else:
            func, rewrap = raw, None
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if starts_op is not None:
                tracer.new_op(starts_op)
            i = tracer._begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = func(*args, **kwargs)
            finally:
                tracer._end(i)
            if observe is not None:
                tracer.values[i] = float(observe(args, out))
            return out

        setattr(owner, attr, rewrap(traced) if rewrap else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading ------------------------------------------------------------

    def ops(self, kinds: tuple[str, ...]) -> list["OpView"]:
        """One view per operation of the given kinds, in the order they ran."""
        if len(self._members) != len(self.op_kinds):
            self._members = [[] for _ in self.op_kinds]
            for i, o in enumerate(self.op_of):
                if o >= 0:
                    self._members[o].append(i)
        return [OpView(self, idx) for idx, k in zip(self._members, self.op_kinds) if k in kinds]

    def run(self) -> "OpView":
        """A view of every span of the run, operations or not."""
        return OpView(self, range(len(self.names)))


class OpView:
    """Sums over the spans of one operation (or of the whole run) by name."""

    def __init__(self, tracer: Tracer, indices):
        self._t = tracer
        self._idx = list(indices)

    def _pick(self, name: str) -> list[int]:
        return [i for i in self._idx if self._t.names[i] == name]

    def total(self, name: str) -> float:
        return sum(self._t.ends[i] - self._t.starts[i] for i in self._pick(name))

    def self_time(self, name: str) -> float:
        return sum(self._t.selfs[i] for i in self._pick(name))

    def calls(self, name: str) -> int:
        return len(self._pick(name))

    def value(self, name: str) -> float:
        return sum(self._t.values[i] for i in self._pick(name))

    def per_call(self, name: str) -> list[float]:
        return [self._t.ends[i] - self._t.starts[i] for i in self._pick(name)]


def median_over(views: list[OpView], fn) -> float:
    """Median of ``fn(view)`` over operations; 0.0 when there are none."""
    vals = [fn(v) for v in views]
    return float(statistics.median(vals)) if vals else 0.0
