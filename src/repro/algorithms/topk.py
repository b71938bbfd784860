"""Top-k set similarity search — the paper's stated future-work extension.

Section X names top-k processing as future work; this module provides it on
top of the same machinery.  The algorithm is iNRA's filter run against a
threshold that is not fixed but *discovered*: ``θ``, the k-th best lower
bound found so far.  It shares iNRA's bounds kernel and round-robin loop
(:mod:`repro.algorithms.kernel`) and keeps only its own rising-θ loop.  All
three Section IV properties apply with ``tau = θ`` and strengthen as θ grows:

* **dynamic length window** — once θ > 0, answers must satisfy
  ``θ·len(q) <= len(s) <= len(q)/θ``, so lists are (re-)seeked forward past
  the shrinking prefix and completed past the shrinking suffix;
* **magnitude admission** — a new set is admitted only if its best-case
  score beats θ;
* **order preservation** — resolves absences exactly as in iNRA; the
  resolve/prune pass is iNRA's full scan at ``tau = θ``, which never drops
  a candidate that could still displace the k-th best.

The result is the k sets with the highest IDF similarity (ties broken by
set id), each with its exact score.
"""

from __future__ import annotations

import heapq
import time
from typing import List

from ..core.errors import ConfigurationError
from ..core.query import PreparedQuery
from ..storage.invlist import InvertedIndex
from ..storage.pages import IOStats
from .base import AlgorithmResult, QueryLists, SearchResult
from .candidates import Candidate, HashCandidateSet
from .kernel import RoundRobin, admission_bound, prune_scan


class TopKSearcher:
    """Incremental-threshold top-k search over an inverted index."""

    def __init__(self, index: InvertedIndex, use_skip_lists: bool = True):
        self.index = index
        self.use_skip_lists = use_skip_lists

    def search(self, query: PreparedQuery, k: int) -> AlgorithmResult:
        """The k best answers as a ``"top-k"`` :class:`AlgorithmResult`."""
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        stats = IOStats()
        lists = QueryLists(
            self.index, query, stats, use_skip_lists=self.use_skip_lists
        )
        if len(lists) == 0:
            return AlgorithmResult("top-k", [], stats, 0)
        query_len = query.length
        candidates = HashCandidateSet()
        finalists: List[Candidate] = []  # resolved, exact scores
        theta = 0.0

        def current_theta() -> float:
            """k-th best known lower bound (0 while fewer than k knowns)."""
            lowers = [c.lower for c in finalists]
            lowers.extend(c.lower for c in candidates)
            if len(lowers) < k:
                return 0.0
            return heapq.nlargest(k, lowers)[-1]

        with RoundRobin(lists) as rr:
            while not rr.done():
                hi = float("inf")
                if theta > 0.0:
                    # Dynamic Theorem 1 window: skip forward as θ rises.
                    rr.seek(theta * query_len)
                    hi = query_len / theta
                for i, length, set_id, contribution in rr.round(float("inf")):
                    if length > hi:
                        rr.close(i)  # the read past len(q)/θ ends the list
                        continue
                    cand = candidates.get(set_id)
                    if cand is None:
                        best = admission_bound(
                            lists, i, length, set_id, rr.open, rr.frontier_key
                        )
                        if best <= 0.0 or best < theta:
                            continue
                        cand = candidates.add(Candidate(set_id, length), i)
                    cand.see(i, contribution)

                theta = current_theta()
                f_threshold = rr.threshold()
                # Resolve / prune the candidate set against the current θ.
                finalists.extend(
                    prune_scan(
                        lists, theta, candidates, rr.open, rr.closed_mask,
                        rr.frontier_key,
                    )
                )
                theta = current_theta()

                if (
                    len(candidates) == 0
                    and len(finalists) >= k
                    and f_threshold < theta
                ):
                    break

        # Any survivors have exact scores now only if resolved; resolve the
        # rest (all lists complete implies resolution, and the early-exit
        # path requires the candidate set to be empty).
        finalists.extend(candidates.scan())
        top = heapq.nsmallest(
            k, finalists, key=lambda c: (-c.lower, c.set_id)
        )
        results = [
            SearchResult(c.set_id, c.lower) for c in top if c.lower > 0.0
        ]
        return AlgorithmResult(
            "top-k",
            results,
            stats,
            lists.elements_total,
            wall_seconds=time.perf_counter() - started,
            peak_candidates=candidates.peak,
        )
