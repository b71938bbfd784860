"""Spans recorded around the program's public methods, from outside.

:func:`traced` wraps the layer entry points named in :data:`LAYERS` for
the duration of a ``with`` block and restores the originals afterwards;
nothing in ``src/`` knows it is being traced.  Each call records one span
``(name, start, end, parent, request)`` in flat arrays; the benchmark
opens a root span per client request with :meth:`SpanRecorder.request`.

A span's *self time* is its duration minus the part of it covered by its
children (children running in parallel on the service's worker threads
are merged, not added).  A span opened on a thread with no open span of
its own (the HTTP handler thread, a batch worker) takes the innermost
open fan-out point as its parent: the request's root span, or the
``search_batch`` span while a batch is running.  The benchmark drives one
request at a time, so that parent is unambiguous.  Calls made outside
every request (set-up, cache warm-up) are not recorded.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.algorithms.base import SelectionAlgorithm
from repro.core.search import SetSimilaritySearcher
from repro.core.updatable import UpdatableSearcher
from repro.service.service import SimilarityService
from repro.storage.invlist import InvertedIndex, WeightOrderCursor

ROOT = "client"

#: (class, attribute, span name); ``None`` names the span after the
#: algorithm instance (``algorithms.<name>``).
LAYERS: Tuple[Tuple[type, str, Optional[str]], ...] = (
    (SimilarityService, "search", "service.search"),
    (SimilarityService, "search_batch", "service.batch"),
    (SetSimilaritySearcher, "prepare", "search.prepare"),
    (SetSimilaritySearcher, "search_prepared", "search.dispatch"),
    (SelectionAlgorithm, "search", None),
    (InvertedIndex, "cursor", "storage.cursor"),
    (InvertedIndex, "probe", "storage.cursor"),
    (WeightOrderCursor, "exhausted", "storage.cursor"),
    (WeightOrderCursor, "peek", "storage.cursor"),
    (WeightOrderCursor, "next", "storage.cursor"),
    (WeightOrderCursor, "seek_length_ge", "storage.cursor"),
    (WeightOrderCursor, "position", "storage.cursor"),
    (WeightOrderCursor, "__len__", "storage.cursor"),
    (WeightOrderCursor, "token", "storage.cursor"),
    (UpdatableSearcher, "add", "updatable.add"),
    (UpdatableSearcher, "rebuild", "updatable.rebuild"),
    (UpdatableSearcher, "search", "updatable.search"),
)

#: Spans under which work fans out to other threads.
FAN_OUT = frozenset({ROOT, "service.batch"})


class SpanRecorder:
    """In-memory span store; thread-safe for the service's worker pool."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request_id = array("l")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fan_out: List[int] = []
        self._current_request = -1
        self._fan_out_ids = set()
        #: Algorithm results seen by the ``SelectionAlgorithm.search``
        #: wrapper, in completion order: the server-side executions.
        self.algorithm_results: list = []

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
            if name in FAN_OUT:
                self._fan_out_ids.add(found)
        return found

    def open(self, name_id: int, root: bool = False) -> int:
        """Start a span; returns its index, or -1 for a call made outside
        every request (set-up, cache warm-up), which is not recorded."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            if root:
                parent = -1
            elif stack:
                parent = stack[-1]
            elif self._fan_out:
                parent = self._fan_out[-1]
            else:
                return -1
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.request_id.append(self._current_request)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
            if name_id in self._fan_out_ids:
                self._fan_out.append(index)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        if index < 0:
            return
        self.end[index] = time.perf_counter()
        self._local.stack.pop()
        if self.name[index] in self._fan_out_ids:
            with self._lock:
                self._fan_out.remove(index)

    @contextmanager
    def request(self) -> Iterator[None]:
        """Root span around one client request."""
        self._current_request += 1
        index = self.open(self.name_id(ROOT), root=True)
        try:
            yield
        finally:
            self.close(index)

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span duration minus the union of its children's intervals."""
        n = len(self.start)
        children: Dict[int, List[int]] = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = [self.end[i] - self.start[i] for i in range(n)]
        for p, kids in children.items():
            lo, hi = self.start[p], self.end[p]
            covered = 0.0
            run_start = run_end = None
            for k in sorted(kids, key=self.start.__getitem__):
                s, e = max(self.start[k], lo), min(self.end[k], hi)
                if e <= s:
                    continue
                if run_end is None or s > run_end:
                    if run_end is not None:
                        covered += run_end - run_start
                    run_start, run_end = s, e
                else:
                    run_end = max(run_end, e)
            if run_end is not None:
                covered += run_end - run_start
            out[p] -= covered
        return out

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, total self seconds)``."""
        totals: Dict[str, List[float]] = {}
        for i, self_s in enumerate(self.self_times()):
            entry = totals.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        return {name: (int(c), s) for name, (c, s) in totals.items()}

    def write(self, path) -> None:
        """Spans as JSON lines: a header naming the fields, then one
        ``[name, start, end, parent, request]`` array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"fields": ["name", "start", "end", "parent",
                                       "request"]}) + "\n"
            )
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    json.dumps([
                        names[self.name[i]], self.start[i], self.end[i],
                        self.parent[i], self.request_id[i],
                    ]) + "\n"
                )


def _wrap(recorder: SpanRecorder, fn: Callable, name: Optional[str]):
    if name is None:  # SelectionAlgorithm.search: one name per algorithm
        ids: Dict[str, int] = {}
        results = recorder.algorithm_results

        @functools.wraps(fn)
        def algorithm_wrapper(self, *args, **kwargs):
            name_id = ids.get(self.name)
            if name_id is None:
                name_id = ids[self.name] = recorder.name_id(
                    f"algorithms.{self.name}"
                )
            index = recorder.open(name_id)
            try:
                result = fn(self, *args, **kwargs)
            finally:
                recorder.close(index)
            if index >= 0:
                results.append(result)
            return result

        return algorithm_wrapper

    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every :data:`LAYERS` entry point while the block runs."""
    saved = []
    try:
        for cls, attr, name in LAYERS:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            if isinstance(original, property):
                replacement = property(_wrap(recorder, original.fget, name))
            else:
                replacement = _wrap(recorder, original, name)
            setattr(cls, attr, replacement)
        yield recorder
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
