"""The Section IV bounds kernel and the round-robin read loop.

NRA, TA, iNRA, Hybrid, iTA and top-k read lists round-robin with the same
per-list state, which :class:`RoundRobin` owns: ``open`` (the indexes of
the lists that can still yield, ascending), ``closed_mask`` (a bit per
closed list) and ``frontier_key[i]`` (the ``(len, id)`` key of the last
posting popped from list ``i``, ``None`` before the first).  Order
Preservation (Property 1) turns that state into "list ``i`` cannot contain
set ``s``" — the list is closed, or its frontier has passed
``(len(s), id(s))`` — and :mod:`repro.core.properties` turns the lists that
remain into bounds.  Every per-round step walks the open lists only, so a
round costs what is still open, not what the query started with.  The
pieces the algorithms share live here, once:

* :class:`RoundRobin` — one posting per open list per round, the frontier
  state, the list-closing rules, ``F`` (the best score of a still-unseen
  set) and the per-page element ledger; :meth:`RoundRobin.skip_idle` pops
  in one step the rounds in which nothing can happen once ``F < tau``;
* :func:`admission_bound` — the Property 2 best case of a newly popped set;
* :func:`prune_scan` — one resolve/prune pass over the candidate set;
* :func:`check_frontier_monotone` — the Magnitude Boundedness contract at a
  list's frontier (called only under ``REPRO_CHECK_INVARIANTS=1``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..contracts import ContractViolation, invariants_enabled
from ..core.properties import best_case_score
from .base import QueryLists
from .candidates import Candidate, CandidateSet

FrontierKeys = Sequence[Optional[Tuple[float, int]]]

#: A list's kept page before its first page entry and after a seek or a
#: settle: the next visit asks the cursor for its page.
_NO_PAGE: Tuple[Sequence[Tuple[float, int]], int, int] = ((), 0, 0)


def admission_bound(
    lists: QueryLists,
    from_list: int,
    length: float,
    set_id: int,
    open_lists: Sequence[int],
    frontier_key: FrontierKeys,
    plausible: Optional[List[int]] = None,
) -> float:
    """Best case of a set first seen now in list ``from_list``.

    Sums the set's squared idf over every list that could still contain
    it: the discovering list, plus each of ``open_lists`` (ascending, as
    :attr:`RoundRobin.open` keeps them) whose frontier has not passed
    ``(length, set_id)``.  Frontiers from earlier in the round only make
    the bound looser, never wrong.  When given, ``plausible`` receives the
    indexes of those other lists (iTA probes exactly them).
    """
    key = (length, set_id)
    idf_squared = lists.idf_squared
    total = idf_squared[from_list]
    for j in open_lists:
        if j == from_list:
            continue
        fk = frontier_key[j]
        if fk is not None and fk >= key:
            continue  # the frontier passed the set: absent from list j
        total += idf_squared[j]
        if plausible is not None:
            plausible.append(j)
    return best_case_score(length, lists.query.length, total)


def prune_scan(
    lists: QueryLists,
    tau: float,
    candidates: CandidateSet,
    open_lists: Sequence[int],
    closed_mask: int,
    frontier_key: FrontierKeys,
    stop_at_viable: bool = False,
) -> List[Candidate]:
    """One pass over the candidate set: resolve, prune, report.

    For each candidate, the closed lists (``closed_mask``) and the open
    lists whose frontier passed its key are ruled out.  A candidate with
    no list left open is resolved: it leaves the set and is returned, its
    ``lower`` now the exact score.  A candidate whose capped upper bound
    (:func:`~repro.core.properties.magnitude_upper_bound`, inlined) is
    below ``tau`` is dropped.  With ``stop_at_viable`` the pass ends at the
    first candidate that stays (Section V's lazy scan): the candidates
    after it may hold dead ones, which costs memory but never correctness.
    Every candidate visited is charged to ``candidate_scans``, in one call.
    """
    all_mask = (1 << len(lists)) - 1
    query_len = lists.query.length
    idf_squared = lists.idf_squared
    remove = candidates.remove
    resolved: List[Candidate] = []
    scanned = 0
    for cand in candidates.scan():
        scanned += 1
        length = cand.length
        key = (length, cand.set_id)
        seen = cand.seen_mask
        dead = cand.dead_mask | (closed_mask & ~seen)
        known = seen | dead
        open_idf_squared = 0.0
        # Index order, as every other idf² sum here is taken.
        for i in open_lists:
            if known >> i & 1:
                continue
            fk = frontier_key[i]
            if fk is not None and fk >= key:
                dead |= 1 << i
            else:
                open_idf_squared += idf_squared[i]
        cand.dead_mask = dead
        if (seen | dead) == all_mask:
            remove(cand.set_id)
            resolved.append(cand)
            continue
        lower = cand.lower
        denom = length * query_len
        if denom > 0.0:
            upper = lower + open_idf_squared / denom
            cap = length / query_len
            if upper > cap:
                upper = cap
            if upper < lower:
                upper = lower
        else:
            upper = lower
        if upper < tau:
            remove(cand.set_id)
        elif stop_at_viable:
            break
    if scanned:
        lists.stats.charge_candidate_scan(scanned)
    return resolved


def check_frontier_monotone(
    lists: QueryLists, list_index: int, length: float, previous: float
) -> None:
    """Magnitude Boundedness at the frontier: the contribution of the
    newly popped posting may never exceed the list's previous frontier
    contribution."""
    contribution = lists.contribution(list_index, length)
    if contribution > previous + 1e-12:
        raise ContractViolation(
            "magnitude-boundedness",
            f"list {lists.tokens[list_index]!r} frontier contribution "
            f"rose from {previous!r} to {contribution!r}; per-token "
            "contributions must be non-increasing",
        )


class RoundRobin:
    """Algorithm 2's round-robin read and its per-list state.

    ``complete``, ``frontier_key`` and ``frontier_contrib`` (``w_i(f_i)``,
    0 once list ``i`` completes) align with ``lists.cursors``; ``open``
    lists the indexes of the lists not complete, ascending, and
    ``closed_mask`` has bit ``i`` set once list ``i`` completes;
    ``open_idf_squared`` sums idf² over the open lists.  Callers change
    the state only through :meth:`close`.  With ``lo``, every list is
    entered at its first posting with ``len >= lo`` (Length Boundedness).

    Each open list's buffered page slice and its position in it are kept
    here (``cursor.page()``), so a pop inside a page is a local read.  The
    pops are charged to the cursor and the ledger with one
    ``cursor.advance(n)`` when the page ends, when the list closes, before
    a :meth:`seek` and when the read ends.  The last is structural: use
    the object as a context manager, and leaving the block settles every
    list, also on an exception or an abandoned generator.  Inside the
    block ``elements_read`` and the cursors' positions may lag the pops.
    """

    __slots__ = ("lists", "complete", "open", "closed_mask", "frontier_key",
                 "frontier_contrib", "open_idf_squared", "_verify", "_page",
                 "_pos")

    def __init__(self, lists: QueryLists, lo: Optional[float] = None) -> None:
        cursors = lists.cursors
        if lo is not None:
            for cursor in cursors:
                cursor.seek_length_ge(lo)
        idf_squared = lists.idf_squared
        n = len(cursors)
        self.lists = lists
        self.complete = complete = [cursor.exhausted() for cursor in cursors]
        self.open = list(range(n))
        self.closed_mask = 0
        self.open_idf_squared = sum(idf_squared)
        if True in complete:  # a length seek ran past a whole list
            self.open = [i for i in self.open if not complete[i]]
            for i, done in enumerate(complete):
                if done:
                    self.closed_mask |= 1 << i
                    self.open_idf_squared -= idf_squared[i]
        self.frontier_key: List[Optional[Tuple[float, int]]] = [None] * n
        self.frontier_contrib = [0.0] * n
        self._verify = invariants_enabled()
        # Each list's kept page, ``(records, start, end)`` as
        # ``cursor.page()`` returns it, and its position ``pos`` in it:
        # records[pos:end] is unread, and pos >= end means "ask the cursor
        # for a page".  records[start:pos] are popped but not yet charged;
        # pos is written by the first pop of a page, so until then
        # pos <= start.
        self._page: List[Tuple[Sequence[Tuple[float, int]], int, int]] = (
            [_NO_PAGE] * n
        )
        self._pos = [0] * n

    def __enter__(self) -> "RoundRobin":
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Charge every open list's uncharged pops (a closed list was
        charged when it closed)."""
        for i in self.open:
            pending = self._pos[i] - self._page[i][1]
            if pending > 0:
                self.lists.cursors[i].advance(pending)
                self._page[i] = _NO_PAGE
                self._pos[i] = 0

    def round(
        self, hi: float, depth_limit: Optional[Callable[[], float]] = None
    ) -> Iterator[Tuple[int, float, int, float]]:
        """Pop the head of every open list, in list order, yielding
        ``(i, length, set_id, contribution)`` with the frontier advanced.

        A list closes without consuming its head when the head is past
        ``hi`` (Theorem 1) or past ``depth_limit()``, asked at each head,
        and right after its last posting is popped, whatever the caller
        does with it.
        """
        lists = self.lists
        cursors = lists.cursors
        complete = self.complete
        frontier_key = self.frontier_key
        frontier_contrib = self.frontier_contrib
        verify = self._verify
        idf_squared = lists.idf_squared
        query_len = lists.query.length
        page_of, pos_of = self._page, self._pos
        # A copy: closing a list removes it from self.open.
        for i in self.open[:]:
            if complete[i]:
                continue  # closed by the caller earlier in this round
            pos = pos_of[i]
            records, start, end = page_of[i]
            if pos >= end:
                page = cursors[i].page()
                if page is None:
                    self._close(i)
                    continue
                page_of[i] = page
                records, pos, end = page
                start = pos
            key = records[pos]
            length = key[0]
            if length > hi or (
                depth_limit is not None and length > depth_limit()
            ):
                if pos > start:
                    cursors[i].advance(pos - start)
                self._close(i)
                continue
            pos += 1
            pos_of[i] = pos
            set_id = key[1]
            # w_i(s), as QueryLists.contribution computes it.
            denom = length * query_len
            contribution = idf_squared[i] / denom if denom > 0.0 else 0.0
            if verify and frontier_key[i] is not None:
                check_frontier_monotone(lists, i, length, frontier_contrib[i])
            frontier_key[i] = key
            frontier_contrib[i] = contribution
            if pos >= end:
                # The page is used up: charge its pops in one call.
                cursor = cursors[i]
                cursor.advance(pos - start)
                page_of[i] = (records, pos, end)
                if cursor.exhausted():
                    self._close(i)
            yield i, length, set_id, contribution

    def skip_idle(
        self,
        keys: Sequence[Tuple[float, int]],
        hi: float,
        depth_limit: Optional[Callable[[], float]] = None,
    ) -> int:
        """Pop, in one step, the coming rounds in which nothing can happen,
        and return how many there were.

        Call it right after a round, once ``F < tau``, with ``keys`` the
        sorted ``(len, id)`` keys of the candidates, and ``hi`` and
        ``depth_limit`` as that round had them.  A round is idle when no
        list sees a candidate, passes one (Order Preservation), closes or
        enters a page; over idle rounds the depth limit cannot move.  A list's frontier has
        passed every key it yielded, so the first candidate key after it
        is the list's next candidate event; its last posting is an event
        too, since popping it closes the list.  Every open list then pops
        the returned number of postings, each frontier is set from the
        last of them as :meth:`round` sets it, and a page used up is
        charged.  The step never enters a page: that happens in a round,
        with its fault point and deadline check.  Over idle rounds the
        caller's pass over the candidates repeats its previous one.
        """
        limit = hi if depth_limit is None else min(hi, depth_limit())
        lists = self.lists
        cursors = lists.cursors
        frontier_key = self.frontier_key
        page_of, pos_of = self._page, self._pos
        open_lists = self.open
        past_limit = (limit, float("inf"))
        rounds = 0
        for i in open_lists:
            pos = pos_of[i]
            records, start, end = page_of[i]
            stop = end - 1 if end >= len(cursors[i]) else end
            k = bisect_right(keys, frontier_key[i])
            if k < len(keys) and stop > pos and keys[k] <= records[stop - 1]:
                stop = bisect_left(records, keys[k], pos, stop)
            if stop > pos and records[stop - 1][0] > limit:
                stop = bisect_right(records, past_limit, pos, stop)
            if stop <= pos:
                return 0
            if not rounds or stop - pos < rounds:
                rounds = stop - pos
        frontier_contrib = self.frontier_contrib
        idf_squared = lists.idf_squared
        query_len = lists.query.length
        for i in open_lists:
            pos = pos_of[i] + rounds
            records, start, end = page_of[i]
            key = records[pos - 1]
            length = key[0]
            # As round() sets it from its last pop.
            denom = length * query_len
            contribution = idf_squared[i] / denom if denom > 0.0 else 0.0
            if self._verify:
                check_frontier_monotone(lists, i, length, frontier_contrib[i])
            frontier_key[i] = key
            frontier_contrib[i] = contribution
            pos_of[i] = pos
            if pos >= end:
                cursors[i].advance(pos - start)
                page_of[i] = (records, pos, end)
        return rounds

    def close(self, i: int) -> None:
        """Mark list ``i`` complete: it can yield no further answer.  Its
        uncharged pops are charged now."""
        if not self.complete[i]:
            pending = self._pos[i] - self._page[i][1]
            if pending > 0:
                self.lists.cursors[i].advance(pending)
            self._close(i)

    def _close(self, i: int) -> None:
        """Close open list ``i``, whose pops are all charged."""
        self.complete[i] = True
        self.closed_mask |= 1 << i
        self.open.remove(i)
        self.frontier_contrib[i] = 0.0
        self.open_idf_squared -= self.lists.idf_squared[i]

    def seek(self, lo: float) -> None:
        """Advance every open list to its first posting with ``len >= lo``;
        a list this exhausts closes at its turn in the next round."""
        cursors = self.lists.cursors
        page_of, pos_of = self._page, self._pos
        for i in self.open:
            cursor = cursors[i]
            pending = pos_of[i] - page_of[i][1]
            if pending > 0:
                cursor.advance(pending)
            cursor.seek_length_ge(lo)
            page_of[i] = _NO_PAGE
            pos_of[i] = 0

    def threshold(self) -> float:
        """``F = Σ_i w_i(f_i)`` over the open lists (a closed list holds 0):
        the best score a set not yet seen in any list can reach.  Once
        ``F < tau`` no new candidate can qualify."""
        return sum(self.frontier_contrib)

    def done(self) -> bool:
        return not self.open
