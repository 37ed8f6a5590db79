"""Outside-in tracer: wraps public entry points of the program where they are
called, keeps spans in memory, and derives per-layer self times.

A span is (name, start, end, parent), where parent is the index of the
enclosing span in the same list, or -1. Everything runs on one thread, so a
plain stack gives the parent. Self time is a span's duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int


@dataclass(frozen=True)
class EntryPoint:
    """A callable to wrap: `attr` (dotted) looked up on module `module`."""

    span: str
    module: str
    attr: str


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Patches entry points while entered; spans accumulate across entries.

    Entry points that no longer exist are recorded in `absent` instead of
    failing, so a later refactor shows up as a missing layer.
    """

    def __init__(self, entry_points: tuple[EntryPoint, ...]):
        self.entry_points = entry_points
        self.spans: list[Span | None] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Tracer":
        for ep in self.entry_points:
            try:
                owner = importlib.import_module(ep.module)
                *parents, attr = ep.attr.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(ep.span)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(ep.span, raw.__func__))
            else:
                patched = self._wrap(ep.span, raw)
            self._undo.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, raw, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent)

        return traced

    def durations(self, name: str, first: int = 0) -> list[float]:
        return [s.end - s.start for s in self.spans[first:] if s.name == name]

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")


def covered(parent: Span, children: list[Span]) -> float:
    """Length of the part of `parent`'s interval that the children cover."""
    total = 0.0
    reach = parent.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            kids.setdefault(s.parent, []).append(s)
    return kids


def summarize(spans: list[Span]) -> dict[str, Stat]:
    """Calls, inclusive seconds and self seconds per span name."""
    kids = children_of(spans)
    stats: dict[str, Stat] = {}
    for index, s in enumerate(spans):
        st = stats.setdefault(s.name, Stat())
        duration = s.end - s.start
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - covered(s, kids.get(index, []))
    return stats


def uncovered(spans: list[Span], name: str, child: str) -> float:
    """Seconds of every `name` span not covered by its direct `child` spans."""
    kids = children_of(spans)
    total = 0.0
    for index, s in enumerate(spans):
        if s.name == name:
            total += s.end - s.start - covered(s, [c for c in kids.get(index, []) if c.name == child])
    return total
