"""Sort-by-id multiway merge — the no-pruning inverted-list baseline.

With lists sorted by increasing set id, a heap-based multiway merge visits
every posting of every query list exactly once.  The id at the top of the
heap has a complete score the moment it is popped (it either already
appeared in every list or will never appear in the remaining ones), so
answers stream out in id order.  Computation cost is constant in the query
threshold — the flat line of Figure 6(a).
"""

from __future__ import annotations

import heapq
from typing import Generator, List, Tuple

from .base import (
    QueryLists,
    SearchResult,
    StreamingAlgorithm,
    register_algorithm,
)


@register_algorithm
class SortByIdMerge(StreamingAlgorithm):
    """Heap merge over id-ordered lists (Section III-B, first variant)."""

    name = "sort-by-id"
    list_order = "id"

    def _stream(
        self, lists: QueryLists, tau: float
    ) -> Generator[SearchResult, None, int]:
        # Heap of (set_id, list_index); ties group contributions per id.
        heap: List[Tuple[int, int]] = []
        for i, cursor in enumerate(lists.cursors):
            if not cursor.exhausted():
                set_id, _length = cursor.peek()
                heapq.heappush(heap, (set_id, i))
        peak = len(heap)
        while heap:
            top_id = heap[0][0]
            score = 0.0
            while heap and heap[0][0] == top_id:
                _, i = heapq.heappop(heap)
                cursor = lists.cursors[i]
                set_id, length = cursor.next()
                score += lists.contribution(i, length)
                if not cursor.exhausted():
                    heapq.heappush(heap, (cursor.peek()[0], i))
            if score >= tau:
                yield SearchResult(top_id, score)
        return peak
