"""Hybrid — round-robin breadth with SF's depth cutoffs (Section VII).

Hybrid reads lists round-robin like iNRA but stops descending a list as soon
as no unread element of it can matter any more: an element of length ``L``
popped from list ``i`` is useful only if

* some existing candidate with length >= ``L`` might still appear in list
  ``i`` (``L <= max_len(C)``), or
* a brand-new candidate of length ``L`` could still reach ``tau`` given the
  lists that remain open (``L <= Λ``, the dynamic analogue of SF's λ over
  the currently open lists).

Both cutoffs shrink as the search progresses — candidates get pruned and
lists complete — so Hybrid never descends deeper than SF in any list while
also never reading more elements than iNRA (Lemma 4).

The price is bookkeeping: ``max_len(C)`` must be current at every list stop
decision.  Section VII's special organization makes that cheap and is
implemented in
:class:`~repro.algorithms.candidates.PartitionedCandidateSet`: one
length-sorted candidate list per inverted list (append-only by construction)
plus a hash table; ``max_len(C)`` is the max over the partition tails
(O(#lists)) and provably-dead candidates are dropped from the partition
backs, where the length-monotone best-case bound is weakest.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..storage.invlist import InvertedIndex
from .base import (
    QueryLists,
    SearchResult,
    SelectionAlgorithm,
    register_algorithm,
)
from .candidates import Candidate, PartitionedCandidateSet
from .kernel import admission_bound, frontier_threshold, prune_scan


@register_algorithm
class Hybrid(SelectionAlgorithm):
    """iNRA's breadth + SF's per-list depth cutoffs + partitioned
    candidates (Section VII; element-access optimality per Lemma 4)."""

    name = "hybrid"

    def __init__(
        self,
        index: InvertedIndex,
        lazy_scans: bool = False,
        **kwargs,
    ) -> None:
        # Full scans by default: Hybrid deliberately pays extra bookkeeping
        # for maximal pruning (the paper's characterization in Section VIII-D).
        super().__init__(index, **kwargs)
        self.lazy_scans = lazy_scans

    def _run(self, lists: QueryLists, tau: float) -> Tuple[List[SearchResult], int]:
        n = len(lists)
        if n == 0:
            return [], 0
        lo, hi = self._bounds(lists, tau)
        query_len = lists.query.length
        candidates = PartitionedCandidateSet(n)
        results: List[SearchResult] = []
        total_idf_sq = lists.total_idf_squared()

        cursors = lists.cursors
        if self.use_length_bounds:
            for cursor in cursors:
                cursor.seek_length_ge(lo)

        complete = [False] * n
        frontier_key: List[Optional[Tuple[float, int]]] = [None] * n
        frontier_contrib = [0.0] * n
        open_idf_sq = sum(lists.idf_squared)
        for i, cursor in enumerate(cursors):
            if cursor.exhausted():
                complete[i] = True
                open_idf_sq -= lists.idf_squared[i]
        f_threshold = float("inf")

        def lambda_cutoff() -> float:
            """Dynamic Λ: max length of a still-admissible new candidate,
            assuming it appears in every open list."""
            if tau * query_len <= 0.0:
                return float("inf")
            return open_idf_sq / (tau * query_len)

        while True:
            for i, cursor in enumerate(cursors):
                if complete[i]:
                    continue
                if cursor.exhausted() or (
                    (head := cursor.peek()[0]) > hi
                    or (head > lambda_cutoff() and head > candidates.max_length())
                ):
                    # SF's stop condition, head > min(hi, max(max_len(C), Λ)),
                    # applied per list in round-robin: nothing unread in this
                    # list can matter.  Stop without consuming the posting.
                    # The O(lists) max_len(C) is asked only past Λ.
                    complete[i] = True
                    frontier_contrib[i] = 0.0
                    open_idf_sq -= lists.idf_squared[i]
                    continue
                length, set_id = cursor.next()
                frontier_key[i] = (length, set_id)
                contribution = lists.contribution(i, length)
                frontier_contrib[i] = contribution
                cand = candidates.get(set_id)
                if cand is None:
                    if f_threshold < tau:
                        continue
                    if admission_bound(
                        lists, i, length, set_id, complete, frontier_key
                    ) < tau:
                        continue
                    cand = Candidate(set_id, length)
                    candidates.add(cand, discovered_in=i)
                cand.see(i, contribution)
                if cursor.exhausted():
                    complete[i] = True
                    frontier_contrib[i] = 0.0
                    open_idf_sq -= lists.idf_squared[i]

            f_threshold = frontier_threshold(frontier_contrib, complete)

            if all(complete):
                for cand in candidates.scan():
                    if cand.lower >= tau:
                        results.append(SearchResult(cand.set_id, cand.lower))
                break

            # Cheap per-round pruning from the partition backs using the
            # length-monotone best-case bound (valid whatever the candidate
            # has or hasn't been seen in).
            if tau * query_len > 0.0:
                dead_above = total_idf_sq / (tau * query_len)
                candidates.prune_back(lambda c: c.length > dead_above)

            if not self.lazy_scans or f_threshold < tau:
                for cand in prune_scan(
                    lists, tau, candidates, complete, frontier_key
                ):
                    if cand.lower >= tau:
                        results.append(SearchResult(cand.set_id, cand.lower))
                if len(candidates) == 0 and f_threshold < tau:
                    break

        return results, candidates.peak
