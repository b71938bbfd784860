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
  at the first still-viable candidate (``lazy_scans=True``, the default);
* **idle rounds in one step** — once ``F < tau`` a round matters only if a
  list sees a candidate, passes one, closes or enters a page, so after
  each pass :meth:`~repro.algorithms.kernel.RoundRobin.skip_idle` pops the
  rounds before the next such event at once.  Their passes would repeat
  the last one and are charged to ``candidate_scans`` unrun (one candidate
  each with lazy scans, all of them otherwise): every answer and counter
  is a round-by-round run's.

The round-robin read and the per-list frontier state are the kernel's
:class:`~repro.algorithms.kernel.RoundRobin`; the body here is the
per-posting admission and the per-round resolve/prune pass.  Hybrid
(Section VII) is this class with full scans and two hooks overridden: the
candidate set and a depth limit, which bounds both the rounds and the
idle rounds popped in one step.

Correctness matches NRA's: upper bounds only ever shrink for valid reasons,
and the search ends when the candidate set empties or every list completes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..storage.invlist import InvertedIndex
from .base import (
    QueryLists,
    SearchResult,
    SelectionAlgorithm,
    register_algorithm,
)
from .candidates import Candidate, CandidateSet, HashCandidateSet
from .kernel import RoundRobin, admission_bound, prune_scan


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
        if len(lists) == 0:
            return [], 0
        lo, hi = self._bounds(lists, tau)
        candidates = self._candidate_set(len(lists))
        get = candidates.get
        results: List[SearchResult] = []
        f_threshold = float("inf")

        with RoundRobin(lists, lo if self.use_length_bounds else None) as rr:
            frontier_key = rr.frontier_key
            depth_limit = self._depth_limit(rr, candidates, tau)
            # The candidates' sorted keys for rr.skip_idle, rebuilt when the
            # set shrinks; once F < tau nothing is admitted.
            keys: List[Tuple[float, int]] = []
            keyed = -1
            while True:
                for i, length, set_id, contribution in rr.round(hi, depth_limit):
                    cand = get(set_id)
                    if cand is None:
                        if f_threshold < tau:
                            continue  # no unseen set can qualify any more
                        if admission_bound(
                            lists, i, length, set_id, rr.open, frontier_key
                        ) < tau:
                            continue  # magnitude boundedness: never viable
                        cand = candidates.add(Candidate(set_id, length), i)
                    # Candidate.see(i, contribution), inlined.
                    bit = 1 << i
                    if not cand.seen_mask & bit:
                        cand.seen_mask |= bit
                        cand.lower += contribution

                f_threshold = rr.threshold()
                done = not rr.open
                if done:
                    # Every membership is resolved: lower bounds are exact.
                    resolved = candidates.scan()
                else:
                    if self.lazy_scans and f_threshold >= tau:
                        continue  # the set cannot empty while F >= tau
                    resolved = prune_scan(
                        lists, tau, candidates, rr.open, rr.closed_mask,
                        frontier_key, stop_at_viable=self.lazy_scans,
                    )
                for cand in resolved:
                    if cand.lower >= tau:
                        results.append(SearchResult(cand.set_id, cand.lower))
                if done or (len(candidates) == 0 and f_threshold < tau):
                    break
                if f_threshold < tau:
                    if keyed != len(candidates):
                        keys = sorted(
                            (cand.length, cand.set_id) for cand in candidates
                        )
                        keyed = len(keys)
                    idle = rr.skip_idle(keys, hi, depth_limit)
                    if idle:
                        # Each skipped pass repeats the last: it stops at
                        # the same viable candidate, or visits them all.
                        lists.stats.charge_candidate_scan(
                            idle if self.lazy_scans else idle * len(keys)
                        )

        return results, candidates.peak

    # Hooks Hybrid overrides (Section VII) -------------------------------
    def _candidate_set(self, num_lists: int) -> CandidateSet:
        return HashCandidateSet()

    def _depth_limit(
        self, rr: RoundRobin, candidates: CandidateSet, tau: float
    ) -> Optional[Callable[[], float]]:
        """A head length past which a list closes, tighter than ``hi``;
        iNRA has none."""
        return None
