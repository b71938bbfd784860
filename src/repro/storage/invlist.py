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
import copy
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    (the NSL mode of Figure 9).
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
        if self.exhausted():
            return
        if self.peek()[0] >= lo:
            return
        tracer = obs_trace.current()
        before = self._pos
        if self._use_skip:
            target = self._postings.skip.seek_ge((lo, -1), self._stats)
            if target > self._pos:
                self.jump(target)
            # Thinned skip lists land at or before the true boundary;
            # the walk below finishes the seek.
        while not self.exhausted() and self.peek()[0] < lo:
            self.next()
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
    lengths do not decrease.
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

    def next(self) -> Tuple[float, int]:
        length, set_id = super().next()
        key = (length, set_id)
        if self._last_key is not None and key <= self._last_key:
            raise ContractViolation(
                "order-preservation",
                f"list {self.token!r} yielded {key!r} after "
                f"{self._last_key!r}; weight-ordered lists must strictly "
                "increase by (len, id)",
            )
        self._last_key = key
        return length, set_id

    def seek_length_ge(self, lo: float) -> None:
        super().seek_length_ge(lo)
        if not self.exhausted() and self.peek()[0] < lo:
            raise ContractViolation(
                "length-boundedness",
                f"seek_length_ge({lo!r}) on list {self.token!r} landed on "
                f"{self.peek()!r}; the skip structure under-seeked",
            )


class IdOrderCursor(SequentialCursor):
    """Forward cursor over one id-ordered list (entries ``(set_id, length)``)."""

    __slots__ = ("token",)

    def __init__(
        self, token: str, id_file: PagedFile, stats: Optional[IOStats]
    ) -> None:
        super().__init__(id_file, stats)
        self.token = token


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
        lengths = collection.lengths()

        # Bucket postings per token, then sort each once.
        per_token: Dict[str, List[Tuple[float, int]]] = {}
        for rec in collection:
            length = lengths[rec.set_id]
            for token in rec.tokens:
                per_token.setdefault(token, []).append((length, rec.set_id))
        self._postings: Dict[str, TokenPostings] = {}
        for token, entries in per_token.items():
            entries.sort()
            self._postings[token] = self._build_postings(token, entries)

    def _build_postings(
        self, token: str, entries: List[Tuple[float, int]]
    ) -> TokenPostings:
        """One token's weight-ordered file and skip list from its sorted
        entries."""
        if invariants_enabled():
            check_order_preservation(
                entries, source=f"weight-ordered list {token!r}"
            )
        weight_file = PagedFile(POSTING_BYTES, self.page_capacity)
        weight_file.extend(entries)
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
        id_file.extend(
            sorted((sid, ln) for ln, sid in postings.weight_file.records())
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
    ) -> Optional[IdOrderCursor]:
        postings = self._postings.get(token)
        if postings is None:
            return None
        id_file = postings.id_file
        if id_file is None:
            id_file = _publish(postings, "id_file", self._build_id_file)
        return IdOrderCursor(token, id_file, stats)

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
