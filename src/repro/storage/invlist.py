"""Inverted-list index over token sets — the specialized index of Section III-B.

For every token the index keeps:

* a **weight-ordered list** of postings ``(len(s), id(s))`` sorted by
  increasing ``(length, id)``.  Since ``len(q)`` and ``idf(token)`` are
  constant within a list, increasing length order *is* decreasing
  contribution (``w_i``) order — the order TA/NRA-style algorithms need;
* optionally a :class:`~repro.storage.skiplist.SkipList` over the weight
  order, so Length Boundedness can seek to ``len >= tau*len(q)`` directly;
* an **id-ordered list** ``(id(s), len(s))`` for the sort-by-id multiway
  merge baseline, built the first time an id cursor asks for it;
* an :class:`~repro.storage.exthash.ExtendibleHash` from set id to length,
  giving TA its one-random-I/O containment probes, built the first time a
  probe asks for it.

SF, iNRA and Hybrid read only the weight-ordered lists and skip lists, so
an index that serves them never pays for the other two (the heaviest part
of Figure 5).

All access paths charge a shared :class:`~repro.storage.pages.IOStats`
ledger, which is how the benchmarks measure pruning power and I/O without
trusting CPython wall-clock (see the module docstring of
:mod:`repro.storage.pages`).
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import gc
import itertools
import operator
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..contracts import (
    CHECKS,
    ContractViolation,
    check_order_preservation,
    invariants_enabled,
)
from ..core.collection import SetCollection
from ..core.errors import IndexNotBuiltError
from ..faults import runtime as faults_runtime
from ..obs import trace as obs_trace
from .exthash import ExtendibleHash
from .pages import DEFAULT_PAGE_CAPACITY, IOStats, PagedFile, SequentialCursor
from .skiplist import SkipList

POSTING_BYTES = 16  # 8-byte set id + 8-byte length
DEFAULT_SKIPLIST_MAX_BYTES = 10 * 1024 * 1024  # the paper's 10 MB cap per list
DEFAULT_SKIPLIST_STRIDE = 16
"""Sample every 16th posting into the skip structure.

A disk skip list indexes page boundaries, not individual records; a dense
skip structure would duplicate the list it indexes (and Figure 5 shows skip
lists as a *small* overhead).  A seek lands within one stride of the target
and finishes with a short sequential walk.
"""
DEFAULT_HASH_BUCKET_CAPACITY = 16

_PUBLISH_LOCK = threading.Lock()

_GC_LOCK = threading.Lock()
_gc_pauses = 0
_gc_resume = False


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause CPython's cyclic garbage collector for a bulk build.

    A build allocates about one tuple per posting, none of them part of a
    cycle, and the collector would walk that growing heap again and again.
    Nested and concurrent pauses share one pause: the first saves the
    caller's ``gc.isenabled()`` state and the last restores it, also when
    the body raises.
    """
    global _gc_pauses, _gc_resume
    with _GC_LOCK:
        if _gc_pauses == 0:
            _gc_resume = gc.isenabled()
            gc.disable()
        _gc_pauses += 1
    try:
        yield
    finally:
        with _GC_LOCK:
            _gc_pauses -= 1
            if _gc_pauses == 0 and _gc_resume:
                gc.enable()


class TokenPostings:
    """All physical structures for one token's postings.

    ``id_file`` and ``hash`` stay None until :class:`InvertedIndex`
    publishes them on first use; once set they never change.
    """

    __slots__ = ("token", "weight_file", "skip", "id_file", "hash")

    def __init__(
        self, token: str, weight_file: PagedFile, skip: Optional[SkipList]
    ) -> None:
        self.token = token
        self.weight_file = weight_file
        self.skip = skip
        self.id_file: Optional[PagedFile] = None
        self.hash: Optional[ExtendibleHash] = None

    def __len__(self) -> int:
        return len(self.weight_file)


class WeightOrderCursor(SequentialCursor):
    """Forward cursor over one weight-ordered list, with length seeking.

    Entries are ``(length, set_id)`` tuples in increasing order.  The cursor
    never moves backwards.  ``seek_length_ge(lo)`` advances to the first
    entry with ``length >= lo`` — via the skip list (a few jumps plus a short
    sequential tail, since capped skip lists are thinned) when available and
    enabled, or by scanning and charging every discarded element otherwise
    (the NSL mode of Figure 9).  The tail is walked a page at a time
    through ``page``/``advance``.
    """

    __slots__ = ("_postings", "_use_skip")

    def __init__(
        self,
        postings: TokenPostings,
        stats: Optional[IOStats],
        use_skip_list: bool = True,
    ) -> None:
        super().__init__(postings.weight_file, stats)
        self._postings = postings
        self._use_skip = use_skip_list and postings.skip is not None

    # Bound here too, so per-class wrappers (span tracing) find every
    # cursor method in this class's own namespace.
    exhausted = SequentialCursor.exhausted
    peek = SequentialCursor.peek
    next = SequentialCursor.next
    position = SequentialCursor.position
    __len__ = SequentialCursor.__len__

    @property
    def token(self) -> str:
        return self._postings.token

    def seek_length_ge(self, lo: float) -> None:
        """Advance to the first entry with length >= lo (no-op if already
        there)."""
        page = self.page()
        if page is None:
            return
        records, pos, _end = page
        if records[pos][0] >= lo:
            return
        tracer = obs_trace.current()
        before = self._pos
        if self._use_skip:
            target = self._postings.skip.seek_ge((lo, -1), self._stats)
            if target > self._pos:
                self.jump(target)
            # Thinned skip lists land at or before the true boundary;
            # the walk below finishes the seek.
        # A linear walk, one page at a time: it stops at the first
        # posting with length >= lo even on a corrupt (unsorted) list,
        # which the checked cursor's post-seek test relies on.
        while True:
            page = self.page()
            if page is None:
                break
            records, pos, end = page
            stop = pos
            while stop < end and records[stop][0] < lo:
                stop += 1
            self.advance(stop - pos)
            if stop < end:
                break
        if tracer is not None:
            tracer.event(
                "list.seek",
                token=self.token,
                lo=lo,
                skipped=self._pos - before,
                via="skip" if self._use_skip else "scan",
            )


class CheckedWeightOrderCursor(WeightOrderCursor):
    """A weight-order cursor that asserts Order Preservation as it reads.

    Swapped in by :meth:`InvertedIndex.cursor` while invariant checking
    is enabled (``REPRO_CHECK_INVARIANTS=1``); the plain cursor carries
    no checking cost otherwise.  Because ``(len, id)`` keys strictly
    increase along a sorted list, verifying each consumed posting
    against the previous one also certifies Magnitude Boundedness: the
    per-token contribution ``idf² / (len·len(q))`` cannot increase while
    lengths do not decrease.  ``advance``, which ``next`` consumes
    through, checks the consumed slice in one pass, before consuming it.
    """

    __slots__ = ("_last_key",)

    def __init__(
        self,
        postings: TokenPostings,
        stats: Optional[IOStats],
        use_skip_list: bool = True,
    ) -> None:
        super().__init__(postings, stats, use_skip_list)
        self._last_key: Optional[Tuple[float, int]] = None

    def _out_of_order(
        self, key: Tuple[float, int], last: Tuple[float, int]
    ) -> ContractViolation:
        return ContractViolation(
            "order-preservation",
            f"list {self.token!r} yielded {key!r} after {last!r}; "
            "weight-ordered lists must strictly increase by (len, id)",
        )

    def advance(self, count: int) -> None:
        """Consume ``count`` postings after checking, in one pass, that
        they strictly increase from the last one consumed."""
        if count > 0:
            keys = self._records[self._pos:self._pos + count]
            if self._last_key is not None:
                keys.insert(0, self._last_key)
            following = itertools.islice(keys, 1, None)
            if not all(map(operator.lt, keys, following)):
                k = next(
                    k for k in range(1, len(keys)) if keys[k - 1] >= keys[k]
                )
                raise self._out_of_order(keys[k], keys[k - 1])
            self._last_key = keys[-1]
        super().advance(count)

    def seek_length_ge(self, lo: float) -> None:
        super().seek_length_ge(lo)
        if not self.exhausted() and self.peek()[0] < lo:
            raise ContractViolation(
                "length-boundedness",
                f"seek_length_ge({lo!r}) on list {self.token!r} landed on "
                f"{self.peek()!r}; the skip structure under-seeked",
            )


def _publish(
    postings: TokenPostings, slot: str, build: Callable[[TokenPostings], Any]
):
    """Set ``postings.<slot>`` to ``build(postings)`` unless a racing reader
    already has; return the one published object.

    Callers check the slot for None first, so this lock is taken once per
    structure (double-checked locking).  It makes the first build the only
    object any reader ever sees: page and bucket charges are keyed on
    object identity, so two racing builds would split one list's charges.
    """
    with _PUBLISH_LOCK:
        value = getattr(postings, slot)
        if value is None:
            value = build(postings)
            setattr(postings, slot, value)
    return value


def _weight_ordered_lists(
    collection: SetCollection,
) -> Iterator[Tuple[str, List[Tuple[float, int]]]]:
    """Each token's postings, sorted by ``(length, set_id)``; every list
    holding a set shares the set's one posting tuple."""
    lengths = collection.lengths()
    lists: Dict[str, List[Tuple[float, int]]] = {}
    for rec in collection:
        posting = (lengths[rec.set_id], rec.set_id)
        for token in rec.tokens:
            entries = lists.get(token)
            if entries is None:
                lists[token] = [posting]
            else:
                entries.append(posting)
    for token, entries in lists.items():
        entries.sort()
        yield token, entries


class InvertedIndex:
    """The full per-token index over a frozen :class:`SetCollection`.

    The weight-ordered lists and (unless ``with_skip_lists=False``, the
    NSL ablation) their skip lists are built here; each list's id-ordered
    file and hash index are built the first time :meth:`id_cursor` or
    :meth:`probe` needs them, exactly as an eager build would lay them
    out.  Lists are shared with every :meth:`with_set` successor, so a
    structure built through one epoch serves the others too.

    ``num_sets`` is one past the highest set id the index covers.
    """

    def __init__(
        self,
        collection: SetCollection,
        with_skip_lists: bool = True,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        skiplist_max_bytes: int = DEFAULT_SKIPLIST_MAX_BYTES,
        skiplist_stride: int = DEFAULT_SKIPLIST_STRIDE,
        hash_bucket_capacity: int = DEFAULT_HASH_BUCKET_CAPACITY,
    ) -> None:
        if not collection.frozen:
            raise IndexNotBuiltError("collection must be frozen before indexing")
        self.collection = collection
        self.num_sets = len(collection)
        self.with_skip_lists = with_skip_lists
        self.page_capacity = page_capacity
        self.skiplist_max_bytes = skiplist_max_bytes
        self.skiplist_stride = skiplist_stride
        self.hash_bucket_capacity = hash_bucket_capacity
        self._postings: Dict[str, TokenPostings] = {}
        with _gc_paused():
            for token, entries in _weight_ordered_lists(collection):
                self._postings[token] = self._build_postings(token, entries)

    def _build_postings(
        self, token: str, entries: List[Tuple[float, int]]
    ) -> TokenPostings:
        """One token's weight-ordered file and skip list from its sorted
        entries, which both adopt as they are: the list is the file's
        records and the skip list strides over it, so it must not change
        afterwards."""
        if invariants_enabled():
            check_order_preservation(
                entries, source=f"weight-ordered list {token!r}"
            )
        weight_file = PagedFile(POSTING_BYTES, self.page_capacity)
        weight_file._records = entries
        skip = None
        if self.with_skip_lists:
            skip = SkipList(
                entries,
                max_bytes=self.skiplist_max_bytes,
                stride=self.skiplist_stride,
            )
        return TokenPostings(token, weight_file, skip)

    def _build_id_file(self, postings: TokenPostings) -> PagedFile:
        id_file = PagedFile(POSTING_BYTES, self.page_capacity)
        id_file._records = sorted(
            (sid, ln) for ln, sid in postings.weight_file.records()
        )
        return id_file

    def _build_hash(self, postings: TokenPostings) -> ExtendibleHash:
        hash_index = ExtendibleHash(self.hash_bucket_capacity)
        for ln, sid in postings.weight_file.records():
            hash_index.insert(sid, ln)
        return hash_index

    def with_set(
        self, set_id: int, tokens: Iterable[str], length: float
    ) -> "InvertedIndex":
        """A new index that also holds set ``set_id`` at ``length``.

        Only the lists of ``tokens`` are rebuilt, each exactly as a
        from-scratch build over the same entries would build it; every
        other list is shared with this index, which is left untouched
        (readers holding it keep a consistent snapshot).  ``length`` must
        come from the statistics this index was built with: then every
        stored length is unchanged and the new posting lands where a full
        build would put it (Property 1, Order Preservation).
        """
        clone = copy.copy(self)
        clone._postings = dict(self._postings)
        clone.num_sets = max(self.num_sets, set_id + 1)
        posting = (length, set_id)
        for token in tokens:
            entries = list(self.postings(token))
            bisect.insort(entries, posting)
            clone._postings[token] = self._build_postings(token, entries)
        return clone

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def __contains__(self, token: str) -> bool:
        return token in self._postings

    def tokens(self):
        return self._postings.keys()

    def list_length(self, token: str) -> int:
        postings = self._postings.get(token)
        return len(postings) if postings else 0

    def postings(self, token: str) -> Sequence[Tuple[float, int]]:
        """The token's stored ``(length, set_id)`` records in weight order,
        without charging I/O (for statistics and rebuilds); empty for
        unseen tokens.  The sequence is the list itself: do not mutate it.
        """
        postings = self._postings.get(token)
        return postings.weight_file._records if postings else ()

    def cursor(
        self,
        token: str,
        stats: Optional[IOStats] = None,
        use_skip_list: bool = True,
        checked: Optional[bool] = None,
    ) -> Optional[WeightOrderCursor]:
        """Weight-order cursor for a token, or None for unseen tokens
        (their lists are empty, so algorithms simply skip them).

        ``checked`` overrides the global invariant-checking flag: pass
        ``False`` for tolerant scans that implement their own integrity
        reporting (:func:`repro.core.validation.validate_index`), or
        ``True`` to force a :class:`CheckedWeightOrderCursor` regardless
        of ``REPRO_CHECK_INVARIANTS``.
        """
        postings = self._postings.get(token)
        if postings is None:
            return None
        if checked if checked is not None else CHECKS.enabled:
            return CheckedWeightOrderCursor(postings, stats, use_skip_list)
        return WeightOrderCursor(postings, stats, use_skip_list)

    def id_cursor(
        self, token: str, stats: Optional[IOStats] = None
    ) -> Optional[SequentialCursor]:
        """Cursor over the token's id-ordered list (entries
        ``(set_id, length)``), or None for unseen tokens."""
        postings = self._postings.get(token)
        if postings is None:
            return None
        id_file = postings.id_file
        if id_file is None:
            id_file = _publish(postings, "id_file", self._build_id_file)
        return id_file.cursor(stats)

    def probe(
        self, token: str, set_id: int, stats: Optional[IOStats] = None
    ) -> Optional[float]:
        """Random-access containment probe: the set's length if it appears
        in the token's list, else None.  Costs one random I/O (TA's unit)."""
        postings = self._postings.get(token)
        if postings is None:
            return None
        hash_index = postings.hash
        if hash_index is None:
            hash_index = _publish(postings, "hash", self._build_hash)
        faults_runtime.maybe_fire("storage.hash_probe")
        if stats is not None and stats.deadline is not None:
            stats.check_deadline()
        found, length = hash_index.probe(set_id, stats)
        return length if found else None

    # ------------------------------------------------------------------
    # size accounting (Figure 5)
    # ------------------------------------------------------------------
    def size_report(self) -> Dict[str, int]:
        """Bytes per component, for the index-size benchmark.

        Every structure is reported as if materialized: a list whose hash
        index was never built is sized from a throwaway build, which is
        neither kept nor published.  The id-ordered file holds the same
        records as the weight-ordered one, so it has the same size.
        """
        postings = self._postings.values()
        weight = sum(p.weight_file.size_bytes() for p in postings)
        id_lists = weight
        skips = sum(
            p.skip.size_bytes() for p in postings if p.skip is not None
        )
        hashes = sum(
            (p.hash if p.hash is not None else self._build_hash(p)).size_bytes()
            for p in postings
        )
        return {
            "inverted_lists_by_weight": weight,
            "inverted_lists_by_id": id_lists,
            "skip_lists": skips,
            "extendible_hashing": hashes,
            "total": weight + id_lists + skips + hashes,
        }

    def num_postings(self) -> int:
        return sum(len(p) for p in self._postings.values())

    def __repr__(self) -> str:
        return (
            f"InvertedIndex(tokens={len(self._postings)}, "
            f"postings={self.num_postings()})"
        )
