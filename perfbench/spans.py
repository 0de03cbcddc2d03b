"""In-memory span recorder and the self-time arithmetic over its spans.

A span is ``(name, start, end, parent, request id)`` on the
``time.perf_counter_ns`` clock, which on Linux is ``CLOCK_MONOTONIC``
and so comparable between the client and the server process. Spans
live in flat ``array`` columns (a traced server records hundreds of
thousands) and are written out once, when the process exits or drains.

Spans come only from wrappers this benchmark installs around public
functions of ``repro`` (:meth:`Recorder.wrap`); the program itself
carries no tracing. The recorder assumes the wrapped functions are
synchronous, so a per-process stack gives each span its parent: on
the server's event loop a synchronous call runs to completion before
any other task runs.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

NO_PARENT = -1


class Recorder:
    """Spans and counts of one process."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        request_id: "Callable[[], int] | None" = None,
    ):
        self._clock = clock
        self._request_id = request_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rid = array("q")
        self.counts: Counter = Counter()
        self._request = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name: str) -> int:
        """Start a span. A top-level span starts a request (its id from
        ``request_id`` if given, else the next number); the spans below
        it share that id."""
        index = len(self.start)
        if not self._stack:
            self._request = self._request_id() if self._request_id else self._request + 1
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.rid.append(self._request)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(self._clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self._clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, count: "Callable | None" = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper (undone by :meth:`restore`).

        ``owner`` is a class or a module; patch a function where its
        caller looks it up (a name imported into another module is
        patched in that module). ``count(args, kwargs, result)`` may
        return ``{counter: amount}``; each is added to :attr:`counts`
        as ``"<name>.<counter>"``, beside ``"<name>.calls"``.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        recorder = self

        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.close(index)
            recorder.counts[name + ".calls"] += 1
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    recorder.counts[f"{name}.{key}"] += amount
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "rid": self.rid.tolist(),
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, separators=(",", ":"))


def task_request_id() -> int:
    """A request id for server spans: the running asyncio task's identity."""
    try:
        task = asyncio.current_task()
    except RuntimeError:
        return 0
    return id(task) if task is not None else 0


class SpanSet:
    """Spans loaded back for analysis (from a dump or a live recorder)."""

    def __init__(self, doc: dict):
        self.names = list(doc["names"])
        self.name = list(doc["name"])
        self.start = list(doc["start"])
        self.end = list(doc["end"])
        self.parent = list(doc["parent"])
        self.rid = list(doc["rid"])
        self.counts = Counter(doc.get("counts", {}))

    @classmethod
    def load(cls, path) -> "SpanSet":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def in_window(self, lo: int, hi: int) -> List[int]:
        """Indices of finished spans that overlap ``[lo, hi]``."""
        return [
            i
            for i in range(len(self.start))
            if self.end[i] and self.start[i] < hi and self.end[i] > lo
        ]


def _union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    total = 0
    cursor = None
    for lo, hi in sorted(intervals):
        if cursor is None or lo > cursor:
            total += hi - lo
            cursor = hi
        elif hi > cursor:
            total += hi - cursor
            cursor = hi
    return total


def self_times(spans: SpanSet, lo: int, hi: int) -> Dict[str, dict]:
    """Per span name: calls, total and self time (ns) inside ``[lo, hi]``.

    Every span is clipped to the window. A span's self time is its
    clipped duration minus the part of it its direct children cover,
    so self times over all names add up to the time covered by
    top-level spans, and ``hi - lo - sum(self)`` is the residual.
    """
    selected = spans.in_window(lo, hi)
    children = defaultdict(list)
    clipped = {}
    for i in selected:
        clipped[i] = (max(spans.start[i], lo), min(spans.end[i], hi))
    for i in selected:
        parent = spans.parent[i]
        if parent != NO_PARENT and parent in clipped:
            children[parent].append(clipped[i])
    out: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for i in selected:
        start, end = clipped[i]
        row = out[spans.names[spans.name[i]]]
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += (end - start) - _union_length(children.get(i, ()))
    return dict(out)


def children_of(spans: SpanSet, name: str, child: str, lo: int, hi: int) -> int:
    """How many ``child`` spans have a ``name`` span as their parent."""
    want_parent = spans.names.index(name) if name in spans.names else None
    want_child = spans.names.index(child) if child in spans.names else None
    if want_parent is None or want_child is None:
        return 0
    return sum(
        1
        for i in spans.in_window(lo, hi)
        if spans.name[i] == want_child
        and spans.parent[i] != NO_PARENT
        and spans.name[spans.parent[i]] == want_parent
    )
