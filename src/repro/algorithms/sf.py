"""SF — the Shortest-First algorithm (Section VI, Algorithm 3).

Depth-first over the lists in *decreasing idf* order (rare tokens first:
their lists are short and their contributions large).  For each list ``i``
a cutoff length

    λ_i = Σ_{j ≥ i} idf(q^j)² / (τ · len(q))        (Equation 2)

bounds how long a *new* candidate first discovered in list ``i`` can be:
anything longer cannot reach ``tau`` even if it appears in every remaining
list — and it provably cannot appear in any earlier list, because earlier
lists were read through their (larger) cutoffs.  λ values are non-increasing
(λ_1 = len(q)/τ is exactly Theorem 1's upper length bound), so later, longer
lists are read only shallowly: up to ``max(max_len(C), λ_i)``, where the tail
of the length-sorted candidate list ``C`` keeps shrinking as candidates are
pruned.

Bookkeeping is a single merge pass per list: both the list postings and the
candidates are in increasing ``(len, id)`` order, so updating scores,
detecting absences (order preservation), and pruning is one linear co-walk —
no per-round hash-table scans at all.  This is why SF wins on wall-clock in
the paper even when Hybrid reads slightly fewer elements.  Each list is read
a buffered page at a time (``cursor.page()``), in a local loop that charges
only the postings it consumed (``cursor.advance``); the stop posting's page
is entered and charged, the stop posting itself is not.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..contracts import check_magnitude_bound, invariants_enabled
from ..core.properties import magnitude_upper_bound
from ..obs import trace as obs_trace
from .base import (
    QueryLists,
    SearchResult,
    SelectionAlgorithm,
    register_algorithm,
)
from .candidates import Candidate


@register_algorithm
class ShortestFirst(SelectionAlgorithm):
    """Depth-first list-at-a-time processing with λ cutoffs
    (Section VI, Algorithm 3; cutoffs from Equation 2).

    Lists are read in :class:`QueryLists` order, decreasing idf.  idf falls
    strictly as a list grows, so on an index built from its own statistics
    this is also shortest-list-first and densest-first (``idf² / N(t)``).
    """

    name = "sf"

    def _run(self, lists: QueryLists, tau: float) -> Tuple[List[SearchResult], int]:
        n = len(lists)
        if n == 0:
            return [], 0
        lo, hi = self._bounds(lists, tau)
        query_len = lists.query.length

        # Suffix sums of squared idfs: potential[i] = Σ_{j >= i} idf²(q^j).
        potential = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            potential[i] = potential[i + 1] + lists.idf_squared[i]
        # λ cutoffs over the open lists (Equation 2).  With length bounding
        # disabled these still apply — they stem from Magnitude Boundedness.
        denom = tau * query_len
        cutoffs = [potential[i] / denom if denom > 0 else 0.0 for i in range(n)]
        if invariants_enabled():
            # Magnitude Boundedness in λ form: suffix potentials only
            # shrink, so the per-list cutoffs must be non-increasing.
            check_magnitude_bound(cutoffs, source="SF λ cutoffs")

        # C: candidates in increasing (len, id) order + id lookup.
        sorted_cands: List[Candidate] = []
        by_id: Dict[int, Candidate] = {}
        peak = 0

        tracer = obs_trace.current()
        for i in range(n):
            cursor = lists.cursors[i]
            list_span = (
                tracer.span("sf.scan_list", token=cursor.token)
                if tracer is not None
                else None
            )
            if self.use_length_bounds:
                cursor.seek_length_ge(lo)
            cutoff = cutoffs[i]
            mu = min(cutoff, hi)
            suffix_after = potential[i + 1]
            idf_squared = lists.idf_squared[i]
            new_cands: List[Candidate] = []
            discover = new_cands.append
            lookup = by_id.get
            ptr = 0  # co-walk pointer into sorted_cands
            scan_start = cursor.position
            ids_before = len(by_id)

            # max_len(C), recomputed only after the co-walk may have
            # pruned: nothing else changes sorted_cands during the scan.
            tail = None
            num_sorted = len(sorted_cands)

            # Page by page: read the buffered slice locally, then charge
            # the postings consumed from it with one advance().
            stopped = False
            while not stopped:
                page = cursor.page()
                if page is None:
                    break
                records, start, end = page
                j = start
                while j < end:
                    length, set_id = records[j]
                    if length > mu:
                        if tail is None:
                            tail = self._live_tail_length(sorted_cands, by_id)
                            num_sorted = len(sorted_cands)
                        if length > tail:
                            # Algorithm 3 stop: len(s) > max(max_len(C), µ_i)
                            stopped = True
                            break
                    j += 1
                    # Candidates strictly before this posting were skipped
                    # by list i: rule the list out and re-check viability.
                    if ptr < num_sorted:
                        head = sorted_cands[ptr]
                        if head.length < length or (
                            head.length == length and head.set_id < set_id
                        ):
                            ptr = self._pass_skipped(
                                lists, tau, sorted_cands, by_id, ptr,
                                (length, set_id), suffix_after,
                            )
                            tail = None
                    cand = lookup(set_id)
                    if cand is None and length > cutoff:
                        continue  # read only to complete existing scores
                    # w_i(s), as QueryLists.contribution computes it.
                    denom = length * query_len
                    contribution = idf_squared / denom if denom > 0.0 else 0.0
                    if cand is None:
                        cand = Candidate(set_id, length)
                        discover(cand)
                        by_id[set_id] = cand
                    cand.see(i, contribution)
                cursor.advance(j - start)

            # Everything not reached by the co-walk is also absent from
            # list i (the list stopped past every candidate key).
            self._pass_skipped(
                lists,
                tau,
                sorted_cands,
                by_id,
                ptr,
                (float("inf"), -1),
                suffix_after,
            )
            sorted_cands = self._merge(sorted_cands, new_cands, by_id)
            if len(by_id) > peak:
                peak = len(by_id)
            if list_span is not None:
                pruned = ids_before + len(new_cands) - len(by_id)
                list_span.note(
                    read=cursor.position - scan_start,
                    discovered=len(new_cands),
                    cutoff=mu,
                )
                if pruned > 0:
                    tracer.event("sf.prune", token=cursor.token, count=pruned)
                tracer.event("sf.frontier", candidates=len(by_id))
                list_span.close()

        results = [
            SearchResult(c.set_id, c.lower)
            for c in sorted_cands
            if c.set_id in by_id and c.lower >= tau
        ]
        return results, peak

    # ------------------------------------------------------------------
    @staticmethod
    def _live_tail_length(
        sorted_cands: List[Candidate], by_id: Dict[int, Candidate]
    ) -> float:
        """``max_len(C)``: trim pruned tombstones off the tail, peek it."""
        while sorted_cands and sorted_cands[-1].set_id not in by_id:
            sorted_cands.pop()
        return sorted_cands[-1].length if sorted_cands else 0.0

    def _pass_skipped(
        self,
        lists: QueryLists,
        tau: float,
        sorted_cands: List[Candidate],
        by_id: Dict[int, Candidate],
        ptr: int,
        key: Tuple[float, int],
        suffix_after: float,
    ) -> int:
        """Advance the co-walk pointer to ``key``, finalizing list ``i`` for
        every candidate passed: unseen there means absent (order
        preservation), so the remaining potential drops to the suffix of the
        later lists; prune when even that cannot reach ``tau``."""
        query_len = lists.query.length
        while ptr < len(sorted_cands):
            cand = sorted_cands[ptr]
            if (cand.length, cand.set_id) >= key:
                break
            if cand.set_id in by_id and magnitude_upper_bound(
                cand.length, query_len, suffix_after, cand.lower
            ) < tau:
                del by_id[cand.set_id]  # tombstone; list trims lazily
            ptr += 1
        return ptr

    @staticmethod
    def _merge(
        sorted_cands: List[Candidate],
        new_cands: List[Candidate],
        by_id: Dict[int, Candidate],
    ) -> List[Candidate]:
        """Merge the (sorted) new discoveries into the candidate list,
        dropping tombstones — the merge-sort step of Algorithm 3."""
        merged: List[Candidate] = []
        a, b = 0, 0
        while a < len(sorted_cands) and b < len(new_cands):
            ca, cb = sorted_cands[a], new_cands[b]
            if (ca.length, ca.set_id) <= (cb.length, cb.set_id):
                if ca.set_id in by_id:
                    merged.append(ca)
                a += 1
            else:
                if cb.set_id in by_id:
                    merged.append(cb)
                b += 1
        for ca in sorted_cands[a:]:
            if ca.set_id in by_id:
                merged.append(ca)
        for cb in new_cands[b:]:
            if cb.set_id in by_id:
                merged.append(cb)
        return merged
