"""The Section IV bounds kernel and the round-robin read loop.

iNRA, Hybrid, iTA and top-k read lists round-robin with the same per-list
state, which :class:`RoundRobin` owns: ``complete[i]`` (list ``i`` can
yield nothing more) and ``frontier_key[i]`` (the ``(len, id)`` key of the
last posting popped from list ``i``, ``None`` before the first).  Order
Preservation (Property 1) turns that state into "list ``i`` cannot contain
set ``s``" — the list is complete, or its frontier has passed
``(len(s), id(s))`` — and :mod:`repro.core.properties` turns the lists that
remain into bounds.  The pieces the algorithms share live here, once:

* :class:`RoundRobin` — one posting per open list per round, the frontier
  state, the list-closing rules and ``F``, the best score of a still-unseen
  set;
* :func:`admission_bound` — the Property 2 best case of a newly popped set;
* :func:`prune_scan` — one resolve/prune pass over the candidate set;
* :func:`check_frontier_monotone` — the Magnitude Boundedness contract at a
  list's frontier (called only under ``REPRO_CHECK_INVARIANTS=1``).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..contracts import ContractViolation, invariants_enabled
from ..core.properties import best_case_score, magnitude_upper_bound
from .base import QueryLists
from .candidates import Candidate, CandidateSet

FrontierKeys = Sequence[Optional[Tuple[float, int]]]


def admission_bound(
    lists: QueryLists,
    from_list: int,
    length: float,
    set_id: int,
    complete: Sequence[bool],
    frontier_key: FrontierKeys,
    plausible: Optional[List[int]] = None,
) -> float:
    """Best case of a set first seen now in list ``from_list``.

    Sums the set's squared idf over every list that could still contain
    it: the discovering list, plus each list that is not complete and whose
    frontier has not passed ``(length, set_id)``.  Frontiers from earlier
    in the round only make the bound looser, never wrong.  When given,
    ``plausible`` receives the indexes of those other lists (iTA probes
    exactly them).
    """
    key = (length, set_id)
    idf_squared = lists.idf_squared
    total = idf_squared[from_list]
    for j, fk in enumerate(frontier_key):
        if j == from_list or complete[j]:
            continue
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
    complete: Sequence[bool],
    frontier_key: FrontierKeys,
    stop_at_viable: bool = False,
) -> List[Candidate]:
    """One pass over the candidate set: resolve, prune, report.

    For each candidate, lists that are complete or whose frontier passed
    its key are ruled out.  A candidate with no list left open is
    resolved: it leaves the set and is returned, its ``lower`` now the
    exact score.  A candidate whose capped upper bound is below ``tau``
    is dropped.  With ``stop_at_viable`` the pass ends at the first
    candidate that stays (Section V's lazy scan): the candidates after it
    may hold dead ones, which costs memory but never correctness.
    """
    all_mask = (1 << len(lists)) - 1
    query_len = lists.query.length
    idf_squared = lists.idf_squared
    resolved: List[Candidate] = []
    for cand in candidates.scan():
        lists.stats.charge_candidate_scan()
        key = (cand.length, cand.set_id)
        known = cand.seen_mask | cand.dead_mask
        open_idf_squared = 0.0
        for i, fk in enumerate(frontier_key):
            if known >> i & 1:
                continue
            if complete[i] or (fk is not None and fk >= key):
                cand.rule_out(i)
            else:
                open_idf_squared += idf_squared[i]
        if cand.resolved(all_mask):
            candidates.remove(cand.set_id)
            resolved.append(cand)
            continue
        upper = magnitude_upper_bound(
            cand.length, query_len, open_idf_squared, cand.lower
        )
        if upper < tau:
            candidates.remove(cand.set_id)
        elif stop_at_viable:
            break
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
    0 once list ``i`` completes) align with ``lists.cursors``;
    ``open_idf_squared`` sums idf² over the open lists.  Callers change
    the state only through :meth:`close`.  With ``lo``, every list is
    entered at its first posting with ``len >= lo`` (Length Boundedness).

    Each open list's buffered page slice is kept here (``cursor.page()``),
    so a pop inside a page reads the record locally; the pop is charged
    at once with ``cursor.advance(1)``, which keeps the ledger and every
    cursor's position exact at each yield.  :meth:`seek` drops the kept
    slices, since it moves the cursors.
    """

    __slots__ = ("lists", "complete", "frontier_key", "frontier_contrib",
                 "open_idf_squared", "_verify", "_records", "_pos", "_end")

    def __init__(self, lists: QueryLists, lo: Optional[float] = None) -> None:
        cursors = lists.cursors
        if lo is not None:
            for cursor in cursors:
                cursor.seek_length_ge(lo)
        self.lists = lists
        self.complete = [cursor.exhausted() for cursor in cursors]
        self.frontier_key: List[Optional[Tuple[float, int]]] = [None] * len(lists)
        self.frontier_contrib = [0.0] * len(lists)
        self.open_idf_squared = sum(lists.idf_squared)
        for idf_squared, done in zip(lists.idf_squared, self.complete):
            if done:
                self.open_idf_squared -= idf_squared
        self._verify = invariants_enabled()
        # The kept page slice of each list: records[pos:end] is unread.
        # pos == end (0 to start) means "ask the cursor for a page".
        self._records: List[Sequence[Tuple[float, int]]] = [()] * len(lists)
        self._pos = [0] * len(lists)
        self._end = [0] * len(lists)

    def round(
        self, hi: float, past_depth: Optional[Callable[[float], bool]] = None
    ) -> Iterator[Tuple[int, float, int, float]]:
        """Pop the head of every open list, in list order, yielding
        ``(i, length, set_id, contribution)`` with the frontier advanced.

        A list closes without consuming its head when the head is past
        ``hi`` (Theorem 1) or ``past_depth(head)`` holds, and right after
        its last posting is popped, whatever the caller does with it.
        """
        lists = self.lists
        complete = self.complete
        frontier_key = self.frontier_key
        frontier_contrib = self.frontier_contrib
        verify = self._verify
        idf_squared = lists.idf_squared
        query_len = lists.query.length
        records_of, pos_of, end_of = self._records, self._pos, self._end
        for i, cursor in enumerate(lists.cursors):
            if complete[i]:
                continue
            pos = pos_of[i]
            end = end_of[i]
            if pos >= end:
                page = cursor.page()
                if page is None:
                    self.close(i)
                    continue
                records_of[i], pos, end = page
                end_of[i] = end
            key = records_of[i][pos]
            length = key[0]
            if length > hi or (past_depth is not None and past_depth(length)):
                self.close(i)
                continue
            cursor.advance(1)
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
            if pos >= end and cursor.exhausted():
                self.close(i)
            yield i, length, set_id, contribution

    def close(self, i: int) -> None:
        """Mark list ``i`` complete: it can yield no further answer."""
        if not self.complete[i]:
            self.complete[i] = True
            self.frontier_contrib[i] = 0.0
            self.open_idf_squared -= self.lists.idf_squared[i]

    def seek(self, lo: float) -> None:
        """Advance every open list to its first posting with ``len >= lo``;
        a list this exhausts closes at its turn in the next round."""
        for i, cursor in enumerate(self.lists.cursors):
            if not self.complete[i]:
                cursor.seek_length_ge(lo)
                self._pos[i] = self._end[i] = 0

    def threshold(self) -> float:
        """``F = Σ_i w_i(f_i)`` over the open lists (a closed list holds 0):
        the best score a set not yet seen in any list can reach.  Once
        ``F < tau`` no new candidate can qualify."""
        return sum(self.frontier_contrib)

    def done(self) -> bool:
        return all(self.complete)
