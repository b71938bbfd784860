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

from typing import Generator, List, Set

from .base import (
    QueryLists,
    SearchResult,
    StreamingAlgorithm,
    register_algorithm,
)
from .kernel import RoundRobin, admission_bound


@register_algorithm
class ITA(StreamingAlgorithm):
    """Improved TA: length window, magnitude pre-check, probe avoidance
    (the Section V "straightforward" TA analogue of iNRA's Section IV
    property usage)."""

    name = "ita"

    def _stream(
        self, lists: QueryLists, tau: float
    ) -> Generator[SearchResult, None, int]:
        seen: Set[int] = set()
        if len(lists) == 0:
            return 0
        lo, hi = self._bounds(lists, tau)
        with RoundRobin(lists, lo if self.use_length_bounds else None) as rr:
            while True:
                for i, length, set_id, contribution in rr.round(hi):
                    if set_id in seen:
                        continue
                    seen.add(set_id)
                    # Lists that could still contain this set; every other
                    # list is a known absence and is never probed.
                    plausible: List[int] = []
                    if admission_bound(
                        lists, i, length, set_id, rr.open, rr.frontier_key,
                        plausible,
                    ) < tau:
                        continue  # provably hopeless: skip all probes
                    score = contribution
                    for j in plausible:
                        found = self.index.probe(
                            lists.tokens[j], set_id, lists.stats
                        )
                        if found is not None:
                            score += lists.contribution(j, length)
                    if score >= tau:
                        yield SearchResult(set_id, score)

                if rr.done() or rr.threshold() < tau:
                    break
        return len(seen)
