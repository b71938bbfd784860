"""iNRA — the Improved NRA algorithm (Section V, Algorithm 2).

Breadth-first (round-robin) like NRA, plus every Section IV property:

* **Length Boundedness** — each list is entered at the first posting with
  ``len >= tau*len(q)`` (via skip list when enabled) and marked *complete*
  as soon as its frontier passes ``len(q)/tau``;
* **Magnitude Boundedness** — a newly popped set is admitted to the
  candidate set only if its best-case score ``Σ_j w_j(s)`` over still
  plausible lists reaches ``tau``;
* the **frontier threshold** ``F = Σ_i w_i(f_i)`` — once ``F < tau`` no
  unseen set can qualify, so admission stops entirely and only existing
  candidates are completed;
* **Order Preservation** — a candidate not yet seen in a list whose
  frontier has passed its ``(len, id)`` key is provably absent from that
  list, so the list is ruled out of its upper bound;
* **lazy candidate scans** — the candidate set is scanned only when
  ``F < tau`` (it cannot be emptied before that), and a pruning scan stops
  at the first still-viable candidate (``lazy_scans=True``, the default).

Correctness matches NRA's: upper bounds only ever shrink for valid reasons,
and the search ends when the candidate set empties or every list completes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..contracts import invariants_enabled
from ..storage.invlist import InvertedIndex
from .base import (
    QueryLists,
    SearchResult,
    SelectionAlgorithm,
    register_algorithm,
)
from .candidates import Candidate, HashCandidateSet
from .kernel import (
    admission_bound,
    check_frontier_monotone,
    frontier_threshold,
    prune_scan,
)


@register_algorithm
class INRA(SelectionAlgorithm):
    """Improved NRA with the Section IV pruning properties
    (Section V, Algorithm 2)."""

    name = "inra"

    def __init__(
        self,
        index: InvertedIndex,
        lazy_scans: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(index, **kwargs)
        self.lazy_scans = lazy_scans

    # ------------------------------------------------------------------
    def _run(self, lists: QueryLists, tau: float) -> Tuple[List[SearchResult], int]:
        n = len(lists)
        if n == 0:
            return [], 0
        lo, hi = self._bounds(lists, tau)
        candidates = HashCandidateSet()
        results: List[SearchResult] = []

        cursors = lists.cursors
        if self.use_length_bounds:
            for cursor in cursors:
                cursor.seek_length_ge(lo)

        complete = [False] * n
        # (length, id) key of the last element popped per list; None before
        # the first pop.  Used for order-preservation absence deduction.
        frontier_key: List[Optional[Tuple[float, int]]] = [None] * n
        frontier_contrib: List[float] = [0.0] * n
        for i, cursor in enumerate(cursors):
            if cursor.exhausted():
                complete[i] = True
            else:
                frontier_contrib[i] = lists.contribution(i, cursor.peek()[0])
        f_threshold = float("inf")
        verify = invariants_enabled()

        while True:
            for i, cursor in enumerate(cursors):
                if complete[i]:
                    continue
                if cursor.exhausted():
                    complete[i] = True
                    frontier_contrib[i] = 0.0
                    continue
                if cursor.peek()[0] > hi:
                    # Theorem 1: nothing at or beyond this length can answer;
                    # stop without consuming the out-of-window posting.
                    complete[i] = True
                    frontier_contrib[i] = 0.0
                    continue
                length, set_id = cursor.next()
                if verify and frontier_key[i] is not None:
                    check_frontier_monotone(
                        lists, i, length, frontier_contrib[i]
                    )
                frontier_key[i] = (length, set_id)
                contribution = lists.contribution(i, length)
                frontier_contrib[i] = contribution
                cand = candidates.get(set_id)
                if cand is None:
                    if f_threshold < tau:
                        continue  # no unseen set can qualify any more
                    if admission_bound(
                        lists, i, length, set_id, complete, frontier_key
                    ) < tau:
                        continue  # magnitude boundedness: never viable
                    cand = candidates.add(Candidate(set_id, length))
                cand.see(i, contribution)
                if cursor.exhausted():
                    complete[i] = True
                    frontier_contrib[i] = 0.0

            f_threshold = frontier_threshold(frontier_contrib, complete)

            if all(complete):
                # Every membership is resolved: lower bounds are exact.
                for cand in candidates.scan():
                    if cand.lower >= tau:
                        results.append(SearchResult(cand.set_id, cand.lower))
                candidates.clear()
                break

            if self.lazy_scans and f_threshold >= tau:
                # The candidate set cannot empty while F >= tau: skip the scan.
                continue

            for cand in prune_scan(
                lists, tau, candidates, complete, frontier_key,
                stop_at_viable=self.lazy_scans,
            ):
                if cand.lower >= tau:
                    results.append(SearchResult(cand.set_id, cand.lower))
            if len(candidates) == 0 and f_threshold < tau:
                break

        return results, candidates.peak
