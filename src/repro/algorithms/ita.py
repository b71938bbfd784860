"""iTA — TA improved with the Section IV semantic properties.

The paper states the iTA modifications are "straightforward" analogues of
iNRA's (end of Section V).  Concretely:

* **Length Boundedness** — every list is entered at ``len >= tau*len(q)``
  (skip list seek) and marked complete once its frontier passes
  ``len(q)/tau``;
* **Magnitude Boundedness** — a newly popped id is fully probed only if its
  best-case score over plausible lists reaches ``tau``; hopeless ids are
  remembered but never charged ``n-1`` random I/Os;
* **Order Preservation** — when completing a score, lists whose frontier
  already passed the id's ``(len, id)`` key (or that completed/exhausted)
  are known absences and are not probed, cutting random I/Os further.

As in TA, there is no candidate set: every considered id is resolved on the
spot, and the search stops when the frontier threshold over the still-active
lists drops below ``tau``.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Set, Tuple

from ..contracts import invariants_enabled
from .base import (
    QueryLists,
    SearchResult,
    StreamingAlgorithm,
    register_algorithm,
)
from .kernel import admission_bound, check_frontier_monotone, frontier_threshold


@register_algorithm
class ITA(StreamingAlgorithm):
    """Improved TA: length window, magnitude pre-check, probe avoidance
    (the Section V "straightforward" TA analogue of iNRA's Section IV
    property usage)."""

    name = "ita"

    def _stream(
        self, lists: QueryLists, tau: float
    ) -> Generator[SearchResult, None, int]:
        n = len(lists)
        seen: Set[int] = set()
        if n == 0:
            return 0
        lo, hi = self._bounds(lists, tau)
        cursors = lists.cursors

        if self.use_length_bounds:
            for cursor in cursors:
                cursor.seek_length_ge(lo)

        complete = [False] * n
        frontier_key: List[Optional[Tuple[float, int]]] = [None] * n
        frontier_contrib = [0.0] * n
        verify = invariants_enabled()
        for i, cursor in enumerate(cursors):
            if cursor.exhausted():
                complete[i] = True

        while True:
            for i, cursor in enumerate(cursors):
                if complete[i]:
                    continue
                if cursor.exhausted() or cursor.peek()[0] > hi:
                    # Exhausted, or past the Theorem 1 window: stop
                    # without consuming.
                    complete[i] = True
                    frontier_contrib[i] = 0.0
                    continue
                length, set_id = cursor.next()
                if verify and frontier_key[i] is not None:
                    check_frontier_monotone(
                        lists, i, length, frontier_contrib[i]
                    )
                frontier_key[i] = (length, set_id)
                frontier_contrib[i] = lists.contribution(i, length)
                if cursor.exhausted():
                    complete[i] = True
                    frontier_contrib[i] = 0.0
                if set_id in seen:
                    continue
                seen.add(set_id)
                # Lists that could still contain this set; every other list
                # is a known absence and is never probed.
                plausible: List[int] = []
                if admission_bound(
                    lists, i, length, set_id, complete, frontier_key, plausible
                ) < tau:
                    continue  # provably hopeless: skip all probes
                score = lists.contribution(i, length)
                for j in plausible:
                    found = self.index.probe(
                        lists.tokens[j], set_id, lists.stats
                    )
                    if found is not None:
                        score += lists.contribution(j, length)
                if score >= tau:
                    yield SearchResult(set_id, score)

            if all(complete):
                break
            if frontier_threshold(frontier_contrib, complete) < tau:
                break
        return len(seen)
