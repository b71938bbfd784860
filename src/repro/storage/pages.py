"""Simulated page-based storage with sequential/random I/O accounting.

The paper's indexes are disk resident and its algorithms are distinguished by
*how* they touch disk: NRA-style methods perform sequential list accesses,
TA-style methods add one random probe per element per list, and skip lists
replace long sequential prefixes with a handful of jumps.  Pure-Python
wall-clock alone would hide those differences (list merging in CPython is
dominated by interpreter overhead), so every storage component in this
package charges its accesses to an :class:`IOStats` ledger, and the benchmark
harness reports those counters alongside wall-clock time.

A :class:`PagedFile` stores fixed-size records in fixed-capacity pages and
is read through a :class:`SequentialCursor`, which charges one *sequential
page read* each time it crosses a page boundary and one *random page read*
when ``jump`` lands it on a new page (modelling a seek).  Hot loops read a
whole buffered page at once (:meth:`SequentialCursor.page` /
:meth:`SequentialCursor.advance`) and charge the postings they consume in
bulk, so the ledger is the same as one ``next()`` per posting.  Sizes in
bytes are tracked so Figure 5 (index sizes) can be regenerated from the
structures themselves.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import DeadlineExceeded, StorageError
from ..faults import runtime as faults_runtime

DEFAULT_PAGE_CAPACITY = 128
"""Records per page. With 16-byte postings this models ~2 KB pages."""


class IOStats:
    """Mutable ledger of simulated I/O and element-access counts.

    ``elements_read`` counts inverted-list entries consumed by an algorithm
    (the paper's unit for pruning power); the page counters model disk
    behaviour; ``hash_probes`` and ``skip_jumps`` expose the auxiliary-index
    traffic that separates TA-style from NRA-style methods.
    """

    #: The counters that :meth:`snapshot`/:meth:`add` cover.  Subclasses
    #: that add counters must extend this tuple — iterating
    #: ``self.__slots__`` would see only the subclass's own slots and
    #: silently drop (or double) the base counters.
    COUNTER_FIELDS = (
        "sequential_pages",
        "random_pages",
        "elements_read",
        "hash_probes",
        "skip_jumps",
        "candidate_scans",
    )

    __slots__ = COUNTER_FIELDS + ("deadline",)

    def __init__(self) -> None:
        #: Absolute ``time.perf_counter()`` value past which the query
        #: stops at its next page entry (``None``: no deadline).  Not a
        #: counter: :meth:`reset`, :meth:`snapshot` and :meth:`add`
        #: leave it alone.
        self.deadline: Optional[float] = None
        self.reset()

    def reset(self) -> None:
        self.sequential_pages = 0
        self.random_pages = 0
        self.elements_read = 0
        self.hash_probes = 0
        self.skip_jumps = 0
        self.candidate_scans = 0

    # ------------------------------------------------------------------
    def charge_sequential_page(self, pages: int = 1, key=None) -> None:
        """Charge sequential page reads.  ``key`` identifies the physical
        page (``(file identity, page number)``); the base ledger ignores it,
        buffer-pool-aware subclasses use it to turn repeat reads into hits."""
        self.sequential_pages += pages

    def charge_random_page(self, pages: int = 1, key=None) -> None:
        self.random_pages += pages

    def charge_element(self, elements: int = 1) -> None:
        self.elements_read += elements

    def charge_hash_probe(self, probes: int = 1) -> None:
        self.hash_probes += probes

    def charge_skip_jump(self, jumps: int = 1) -> None:
        self.skip_jumps += jumps

    def charge_candidate_scan(self, scanned: int = 1) -> None:
        self.candidate_scans += scanned

    def check_deadline(self) -> None:
        """Raise :class:`DeadlineExceeded` once the deadline has passed.

        Storage calls it on entering a page or probing a hash bucket,
        and only when ``deadline`` is set, so a query without one pays
        a single attribute test per page.
        """
        if time.perf_counter() >= self.deadline:
            raise DeadlineExceeded("query deadline passed")

    # ------------------------------------------------------------------
    @property
    def total_pages(self) -> int:
        return self.sequential_pages + self.random_pages

    def cost(
        self, sequential_weight: float = 1.0, random_weight: float = 10.0
    ) -> float:
        """Weighted I/O cost; random pages default to 10x a sequential page,
        a conventional disk model."""
        return (
            sequential_weight * self.sequential_pages
            + random_weight * self.random_pages
        )

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    def add(self, other: "IOStats") -> None:
        """Accumulate another ledger into this one (for workload totals).

        Counters the other ledger lacks (e.g. ``buffer_hits`` when merging
        a plain ledger into a buffered one) contribute zero.
        """
        for name in self.COUNTER_FIELDS:
            setattr(
                self, name, getattr(self, name) + getattr(other, name, 0)
            )

    def __repr__(self) -> str:
        return (
            f"IOStats(seq={self.sequential_pages}, rand={self.random_pages}, "
            f"elems={self.elements_read}, probes={self.hash_probes}, "
            f"skips={self.skip_jumps})"
        )


class PagedFile:
    """An append-only file of fixed-size records grouped into pages.

    Records are arbitrary Python objects; ``record_bytes`` is the modelled
    on-disk size of one record, used for size accounting only.
    """

    def __init__(
        self,
        record_bytes: int,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
    ) -> None:
        if record_bytes <= 0:
            raise StorageError("record_bytes must be positive")
        if page_capacity <= 0:
            raise StorageError("page_capacity must be positive")
        self.record_bytes = record_bytes
        self.page_capacity = page_capacity
        self._records: List[Any] = []

    # ------------------------------------------------------------------
    def append(self, record: Any) -> int:
        """Append a record; returns its record number."""
        self._records.append(record)
        return len(self._records) - 1

    def extend(self, records: Sequence[Any]) -> None:
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def num_pages(self) -> int:
        n = len(self._records)
        return (n + self.page_capacity - 1) // self.page_capacity

    def size_bytes(self) -> int:
        """Modelled on-disk size of the stored records.

        Byte-accurate (records x record size): many token lists are tiny,
        and charging each a whole page would overstate index sizes by an
        order of magnitude.  Page granularity matters for I/O counting, not
        for the Figure 5 size comparison; :meth:`allocated_bytes` gives the
        page-rounded figure when slack matters.
        """
        return len(self._records) * self.record_bytes

    def allocated_bytes(self) -> int:
        """Page-rounded on-disk allocation (includes page slack)."""
        return self.num_pages * self.page_capacity * self.record_bytes

    # ------------------------------------------------------------------
    def cursor(
        self, stats: Optional[IOStats] = None, start: int = 0
    ) -> "SequentialCursor":
        return SequentialCursor(self, stats, start)

    def records(self) -> Iterator[Any]:
        """Raw iteration without any I/O charging (for rebuilds/tests)."""
        return iter(self._records)


class SequentialCursor:
    """Forward-only cursor over a :class:`PagedFile` with page accounting.

    The cursor buffers one page at a time.  A read inside the buffered
    page is one integer compare against ``_page_end``; entering a new page
    fires the ``storage.read_page`` fault point, checks the ledger's
    deadline and charges the page, keyed ``(id(file), page)``:
    sequentially on a read, randomly on ``jump(pos)`` (the seek that a
    skip-list jump would cost on disk).  The cursor sees the records the
    file held when it was opened.  Id-ordered lists use it as it is; the
    weight-order cursors of :mod:`repro.storage.invlist` subclass it.

    One read path: :meth:`_enter_page` is the only place a page is
    entered and :meth:`advance` the only place a consumed posting is
    charged.  ``peek``/``next`` read one posting per call (``next``
    consumes it through ``advance(1)``); ``page``/``advance`` hand a loop
    the unread rest of the buffered page and charge what it consumed
    with one call, as the per-posting loops of SF,
    :class:`~repro.algorithms.kernel.RoundRobin` and the length seek do.
    """

    __slots__ = ("_file", "_records", "_len", "_cap", "_stats", "_pos",
                 "_page_end")

    def __init__(
        self, file: PagedFile, stats: Optional[IOStats], start: int = 0
    ) -> None:
        if start < 0:
            raise StorageError("cursor start must be non-negative")
        self._file = file
        self._records = file._records
        self._len = len(file._records)
        self._cap = file.page_capacity
        self._stats = stats
        self._pos = start
        # End of the buffered page, clipped to the file; 0 = none buffered.
        # Positions only grow, so ``pos < _page_end`` means "buffered".
        self._page_end = 0

    @property
    def position(self) -> int:
        return self._pos

    def __len__(self) -> int:
        return self._len

    def exhausted(self) -> bool:
        return self._pos >= self._len

    def _enter_page(self, random: bool) -> None:
        """Read the page under the cursor into the buffer."""
        page = self._pos // self._cap
        # The one place storage enters a page, and so where it can fail.
        faults_runtime.maybe_fire("storage.read_page")
        stats = self._stats
        if stats is not None:
            if stats.deadline is not None:
                stats.check_deadline()
            key = (id(self._file), page)
            if random:
                stats.charge_random_page(key=key)
            else:
                stats.charge_sequential_page(key=key)
        self._page_end = min((page + 1) * self._cap, self._len)

    def peek(self) -> Any:
        """Read the record under the cursor without advancing."""
        pos = self._pos
        if pos >= self._page_end:
            if pos >= self._len:
                raise StorageError("cursor exhausted")
            self._enter_page(False)
        return self._records[pos]

    def next(self) -> Any:
        """Read the record under the cursor and advance past it."""
        pos = self._pos
        if pos >= self._page_end:
            if pos >= self._len:
                raise StorageError("cursor exhausted")
            self._enter_page(False)
        self.advance(1)
        return self._records[pos]

    def page(self) -> Optional[Tuple[List[Any], int, int]]:
        """The unread rest of the buffered page, as ``(records, pos, end)``.

        ``records[pos:end]`` are the postings from the cursor's position
        to the end of its page; nothing is copied.  With no page
        buffered, the next one is entered first (as :meth:`peek` would);
        ``None`` once the cursor is exhausted.  Reading the slice charges
        no element: :meth:`advance` charges what the caller consumed.
        """
        pos = self._pos
        if pos >= self._page_end:
            if pos >= self._len:
                return None
            self._enter_page(False)
        return self._records, pos, self._page_end

    def advance(self, count: int) -> None:
        """Consume ``count`` records of the buffered page (``count`` must
        not run past the ``end`` that :meth:`page` returned), charging
        them as ``count`` element reads."""
        if self._stats is not None:
            self._stats.charge_element(count)
        self._pos += count

    def jump(self, position: int) -> None:
        """Reposition the cursor (random page read unless already buffered)."""
        if position < self._pos:
            raise StorageError("cursor cannot move backwards")
        self._pos = position
        if self._page_end <= position < self._len:
            self._enter_page(True)


def bytes_human(n: float) -> str:
    """Format a byte count for benchmark tables (KB/MB/GB)."""
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024.0 or unit == "TB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    raise AssertionError("unreachable")
