"""Top-k set similarity search — the paper's stated future-work extension.

Section X names top-k processing as future work; this module provides it on
top of the same machinery.  The algorithm is iNRA's filter run against a
threshold that is not fixed but *discovered*: ``θ``, the k-th best lower
bound found so far.  It shares iNRA's bounds kernel
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
from typing import List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.query import PreparedQuery
from ..storage.invlist import InvertedIndex
from ..storage.pages import IOStats
from .base import QueryLists, SearchResult
from .candidates import Candidate, HashCandidateSet
from .kernel import admission_bound, frontier_threshold, prune_scan


class TopKResult:
    """Top-k answers plus the I/O ledger of the search."""

    __slots__ = ("results", "stats", "elements_total")

    def __init__(
        self, results: List[SearchResult], stats: IOStats, elements_total: int
    ) -> None:
        self.results = results
        self.stats = stats
        self.elements_total = elements_total

    def ids(self) -> List[int]:
        return [r.set_id for r in self.results]

    def __len__(self) -> int:
        return len(self.results)


class TopKSearcher:
    """Incremental-threshold top-k search over an inverted index."""

    def __init__(self, index: InvertedIndex, use_skip_lists: bool = True):
        self.index = index
        self.use_skip_lists = use_skip_lists

    def search(self, query: PreparedQuery, k: int) -> TopKResult:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        stats = IOStats()
        lists = QueryLists(
            self.index, query, stats, use_skip_lists=self.use_skip_lists
        )
        n = len(lists)
        if n == 0:
            return TopKResult([], stats, 0)
        query_len = query.length
        candidates = HashCandidateSet()
        finalists: List[Candidate] = []  # resolved, exact scores

        cursors = lists.cursors
        complete = [False] * n
        frontier_key: List[Optional[Tuple[float, int]]] = [None] * n
        frontier_contrib = [0.0] * n
        for i, cursor in enumerate(cursors):
            if cursor.exhausted():
                complete[i] = True

        theta = 0.0

        def current_theta() -> float:
            """k-th best known lower bound (0 while fewer than k knowns)."""
            lowers = [c.lower for c in finalists]
            lowers.extend(c.lower for c in candidates)
            if len(lowers) < k:
                return 0.0
            return heapq.nlargest(k, lowers)[-1]

        while not all(complete):
            hi = query_len / theta if theta > 0.0 else float("inf")
            lo = theta * query_len
            for i, cursor in enumerate(cursors):
                if complete[i]:
                    continue
                # Dynamic Theorem 1 window: skip forward as θ rises.
                if theta > 0.0 and not cursor.exhausted():
                    if cursor.peek()[0] < lo:
                        cursor.seek_length_ge(lo)
                if cursor.exhausted():
                    complete[i] = True
                    frontier_contrib[i] = 0.0
                    continue
                length, set_id = cursor.next()
                frontier_key[i] = (length, set_id)
                frontier_contrib[i] = lists.contribution(i, length)
                if length > hi:
                    complete[i] = True
                    frontier_contrib[i] = 0.0
                    continue
                cand = candidates.get(set_id)
                if cand is None:
                    best = admission_bound(
                        lists, i, length, set_id, complete, frontier_key
                    )
                    if theta > 0.0 and best < theta:
                        continue
                    if best <= 0.0:
                        continue
                    cand = candidates.add(Candidate(set_id, length))
                cand.see(i, lists.contribution(i, length))
                if cursor.exhausted():
                    complete[i] = True
                    frontier_contrib[i] = 0.0

            theta = current_theta()
            f_threshold = frontier_threshold(frontier_contrib, complete)
            # Resolve / prune the candidate set against the current θ.
            finalists.extend(
                prune_scan(lists, theta, candidates, complete, frontier_key)
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
        return TopKResult(results, stats, lists.elements_total)
