"""Classic NRA (No Random Access) — Algorithm 1 of the paper.

Round-robin sequential reads over the weight-ordered lists; an in-memory
hash table of candidates with aggregated lower bounds and per-list seen
bits.  Upper bounds use only *monotonicity*: a candidate's missing lists are
charged at the current frontier contribution ``w_i(f_i)``.  None of the
Section IV semantic properties are used — no length-window seeking, no
order-preservation absence deduction, no magnitude-bounded upper bounds.
That is exactly why Lemma 1 can construct instances where NRA reads
arbitrarily more elements than iNRA.

The paper's experimental setup could not run textbook NRA to completion and
enabled two bookkeeping reducers (Section VIII-A): skip candidate-set scans
while ``F >= tau`` (no candidate can be pruned before that point anyway for
termination purposes) and stop a pruning scan early once a viable candidate
is found.  Both are on by default here (``lazy_scans``); construct with
``lazy_scans=False`` for the textbook behaviour.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..storage.invlist import InvertedIndex
from .base import (
    QueryLists,
    SearchResult,
    SelectionAlgorithm,
    register_algorithm,
)
from .candidates import Candidate, HashCandidateSet
from .kernel import RoundRobin


@register_algorithm
class NRA(SelectionAlgorithm):
    """Textbook NRA over weight-ordered inverted lists (Algorithm 1;
    the Lemma 1 lower-bound baseline)."""

    name = "nra"

    def __init__(
        self,
        index: InvertedIndex,
        lazy_scans: bool = True,
        **kwargs,
    ) -> None:
        # Classic NRA uses neither length bounds nor skip lists; accept and
        # override the shared knobs so the harness can construct uniformly.
        kwargs["use_length_bounds"] = False
        kwargs["use_skip_lists"] = False
        super().__init__(index, **kwargs)
        self.lazy_scans = lazy_scans

    def _run(self, lists: QueryLists, tau: float) -> Tuple[List[SearchResult], int]:
        n = len(lists)
        if n == 0:
            return [], 0
        all_mask = (1 << n) - 1
        candidates = HashCandidateSet()
        results: List[SearchResult] = []

        with RoundRobin(lists) as rr:
            # frontier[i]: contribution of the last element read from list
            # i (an upper bound on everything unread there); 0 once
            # exhausted.
            frontier = rr.frontier_contrib
            while True:
                for i, length, set_id, contribution in rr.round(math.inf):
                    cand = candidates.get(set_id)
                    if cand is None:
                        cand = candidates.add(Candidate(set_id, length))
                    cand.see(i, contribution)

                f_threshold = rr.threshold()
                # NRA closes a list only when it runs out.
                exhausted_mask = rr.closed_mask

                if self.lazy_scans and f_threshold >= tau and exhausted_mask == 0:
                    # Section VIII-A optimization: pruning cannot empty the
                    # candidate set while F >= tau, so skip the scan.
                    continue

                open_lists = rr.open
                scanned = 0
                for cand in candidates.scan():
                    scanned += 1
                    # Lists that ran out can no longer contribute.
                    cand.dead_mask |= exhausted_mask & ~cand.seen_mask
                    if cand.resolved(all_mask):
                        if cand.lower >= tau:
                            results.append(SearchResult(cand.set_id, cand.lower))
                        candidates.remove(cand.set_id)
                        continue
                    upper = cand.lower
                    known = cand.seen_mask | cand.dead_mask
                    for i in open_lists:
                        if not known >> i & 1:
                            upper += frontier[i]
                    if upper < tau:
                        candidates.remove(cand.set_id)
                    elif self.lazy_scans:
                        # Early termination: first viable candidate ends
                        # the scan.
                        break
                if scanned:
                    lists.stats.charge_candidate_scan(scanned)

                # Terminate only when no candidate is alive AND no unseen
                # set can still qualify (an unseen set's score is bounded
                # by F).  Once every list is exhausted, every candidate
                # resolves above and F is 0, below any tau.
                if len(candidates) == 0 and f_threshold < tau:
                    break

        return results, candidates.peak
