"""In-memory span recorder for the traced benchmark run.

The tracer replaces library functions where their callers look them up
(module globals and class attributes), records one span per call (name,
start, end, parent) in flat arrays, and puts the originals back on exit.
Nothing inside the program is edited, and an untraced run installs no
wrappers.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    """Records nested call spans; use as a context manager to restore patches."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._kind = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, list[int]] = {}

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, on_result):
        nid = self._name_id(name)
        kind, start, end, parent, stack = (
            self._kind, self._start, self._end, self._parent, self._stack
        )
        clock = time.perf_counter

        def span(*args, **kwargs):
            sid = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if on_result is not None:
                on_result(result)
            return result

        span.__wrapped__ = fn
        return span

    def _replace(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        self._replace(owner, attr, lambda fn: self._span(name, fn, on_result))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        cell = self.counters.setdefault(name, [0])

        def make(fn):
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted

        self._replace(owner, attr, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def table(self) -> "SpanTable":
        return SpanTable(
            self.names,
            np.frombuffer(self._kind, dtype=np.int32).copy(),
            np.frombuffer(self._start, dtype=np.float64).copy(),
            np.frombuffer(self._end, dtype=np.float64).copy(),
            np.frombuffer(self._parent, dtype=np.int64).copy(),
        )


class SpanTable:
    """Columnar view of recorded spans with per-span self time."""

    def __init__(self, names, kind, start, end, parent) -> None:
        self.names = list(names)
        self.kind = kind
        self.start = start
        self.end = end
        self.parent = parent
        self.duration = end - start
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=self.duration[nested], minlength=len(kind)
        )
        # Children run one after another inside their parent, so the time
        # they cover is the sum of their durations.
        self.self_time = self.duration - covered

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.kind, ids)

    def layer_mask(self, layer: str) -> np.ndarray:
        return self.mask(*(n for n in self.names if n.startswith(layer + ".")))

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.duration[self.mask(*names)].sum())

    def self_total(self, mask: np.ndarray) -> float:
        return float(self.self_time[mask].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self.mask(name)]

    def parent_is(self, name: str) -> np.ndarray:
        """Mask of spans whose direct parent is a ``name`` span."""
        has_parent = self.parent >= 0
        parent_kind = np.full(len(self.kind), -1, dtype=np.int64)
        parent_kind[has_parent] = self.kind[self.parent[has_parent]]
        target = self.names.index(name) if name in self.names else -2
        return parent_kind == target

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            kind=self.kind,
            start=self.start,
            end=self.end,
            parent=self.parent,
        )
