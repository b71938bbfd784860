"""Classic TA (Threshold Algorithm) with random accesses — Fagin et al.

Round-robin sequential reads like NRA, but every newly encountered set id is
immediately *completed*: the algorithm probes every other list's extendible
hash index (one random page I/O each, see
:mod:`repro.storage.exthash`) to find whether the set appears there and adds
the corresponding contribution.  Because every seen id has an exact score,
no candidate set is maintained at all; the algorithm stops as soon as the
frontier threshold ``F = Σ w_i(f_i)`` drops below ``tau``, at which point no
unseen id can qualify.

The cost profile is the mirror image of NRA's: minimal bookkeeping and the
strongest possible stopping condition, paid for with ``n - 1`` random I/Os
per distinct id encountered — which is why Figure 6(b) shows TA degrading
sharply with query size.
"""

from __future__ import annotations

import math
from typing import List, Set, Tuple

from ..storage.invlist import InvertedIndex
from .base import (
    QueryLists,
    SearchResult,
    SelectionAlgorithm,
    register_algorithm,
)
from .kernel import RoundRobin


@register_algorithm
class TA(SelectionAlgorithm):
    """Textbook TA over weight-ordered lists + per-list hash indexes
    (Fagin et al.; the paper's Section III-C random-access baseline)."""

    name = "ta"

    def __init__(self, index: InvertedIndex, **kwargs) -> None:
        kwargs["use_length_bounds"] = False
        kwargs["use_skip_lists"] = False
        super().__init__(index, **kwargs)

    def _complete_score(
        self, lists: QueryLists, from_list: int, set_id: int, length: float
    ) -> float:
        """Exact score via random-access probes of every other list."""
        score = lists.contribution(from_list, length)
        for j in range(len(lists)):
            if j == from_list:
                continue
            found = self.index.probe(lists.tokens[j], set_id, lists.stats)
            if found is not None:
                score += lists.contribution(j, length)
        return score

    def _run(self, lists: QueryLists, tau: float) -> Tuple[List[SearchResult], int]:
        if len(lists) == 0:
            return [], 0
        results: List[SearchResult] = []
        seen: Set[int] = set()
        rr = RoundRobin(lists)

        while True:
            for i, length, set_id, _contribution in rr.round(math.inf):
                if set_id in seen:
                    continue
                seen.add(set_id)
                score = self._complete_score(lists, i, set_id, length)
                if score >= tau:
                    results.append(SearchResult(set_id, score))
            if rr.done() or rr.threshold() < tau:
                break
        return results, len(seen)
