"""Selection under tf-based measures: TF/IDF, BM25 and BM25'.

Section IV closes with the observation that TF/IDF and BM25 "follow looser
versions of the aforementioned properties (by associating with every token a
maximum tf component and boosting all bounds accordingly)", so the same
index machinery can serve them.  This module implements that as
filter-and-verify on top of the IDF inverted index:

1. **Filter** — gather candidate ids from the query tokens' inverted lists.
   For TF/IDF cosine the Theorem 1 window can be kept, boosted by the
   corpus's maximum term frequency: with every tf capped at ``max_tf``,

       I_tf(q, s) >= tau  =>  tau·len(q)/max_tf² <= len(s) <= max_tf²·len(q)/tau

   (both derivations follow Theorem 1's proof with each matched token's
   weight inflated by at most ``max_tf`` on each side).  For BM25/BM25' the
   normalization does not factor through the set-level lengths, so the
   filter keeps every overlapping set — still complete, merely less pruned.

2. **Verify** — score each candidate exactly with the requested measure and
   keep those at or above ``tau``.

In the common relational case the paper motivates (tf = 1 almost
everywhere), ``max_tf`` is 1 or 2 and the boosted window stays tight.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from ..algorithms.base import AlgorithmResult, SearchResult
from ..storage.invlist import InvertedIndex
from ..storage.pages import IOStats
from .collection import SetCollection
from .errors import EmptyQueryError
from .properties import effective_threshold, length_bounds
from .query import PreparedQuery
from .similarity import SimilarityMeasure, measure_from_name
from .weights import tf_counts

_WINDOWED_MEASURES = {"tfidf", "idf"}


class WeightedSelector:
    """Filter-and-verify selection for tf-based similarity measures.

    Parameters
    ----------
    collection:
        The database.  Multiset counts recorded at collection build time are
        used both for ``max_tf`` and for exact verification.
    index:
        An existing IDF inverted index over the collection (one is built if
        not supplied; skip lists are used for the boosted window seek).
    """

    def __init__(
        self,
        collection: SetCollection,
        index: Optional[InvertedIndex] = None,
    ) -> None:
        self.collection = collection
        self.index = index or InvertedIndex(collection)
        self.max_tf = max(
            (
                max(rec.counts.values(), default=1)
                for rec in collection
            ),
            default=1,
        )

    # ------------------------------------------------------------------
    def search(
        self,
        tokens: List[str],
        tau: float,
        measure: str = "tfidf",
        **measure_options,
    ) -> AlgorithmResult:
        """All sets with ``measure`` similarity >= tau (exact).

        ``measure`` is one of ``tfidf``, ``bm25``, ``bm25p`` (or ``idf``,
        which degenerates to the native machinery but is accepted for
        uniformity).  ``tokens`` may be a multiset; term frequencies are
        taken from it.
        """
        cutoff = effective_threshold(tau)
        stats = self.collection.stats
        scorer = measure_from_name(measure, stats, **measure_options)
        io = IOStats()
        started = time.perf_counter()

        q_counts = tf_counts(list(tokens))
        if not q_counts:
            raise EmptyQueryError("query produced no tokens")
        query = PreparedQuery(list(q_counts), stats)

        candidates, elements_total = self._gather(query, tau, measure, io)
        results = self._verify(q_counts, candidates, scorer, cutoff)
        elapsed = time.perf_counter() - started
        return AlgorithmResult(
            algorithm=f"weighted-{measure}",
            results=results,
            stats=io,
            elements_total=elements_total,
            wall_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    def _window(self, query: PreparedQuery, tau: float, measure: str):
        if measure in _WINDOWED_MEASURES:
            lo, hi = length_bounds(query.length, tau)
            boost = float(self.max_tf) ** 2
            return lo / boost, hi * boost
        return 0.0, float("inf")

    def _gather(
        self,
        query: PreparedQuery,
        tau: float,
        measure: str,
        io: IOStats,
    ):
        """Candidate ids from the inverted lists, window-restricted."""
        lo, hi = self._window(query, tau, measure)
        candidates: Set[int] = set()
        elements_total = 0
        for token in query.tokens:
            cursor = self.index.cursor(token, io)
            if cursor is None:
                continue
            elements_total += len(cursor)
            cursor.seek_length_ge(lo)
            while not cursor.exhausted():
                length, set_id = cursor.peek()
                if length > hi:
                    break
                cursor.next()
                candidates.add(set_id)
        return candidates, elements_total

    def _verify(
        self,
        q_counts: Dict[str, int],
        candidates: Set[int],
        scorer: SimilarityMeasure,
        cutoff: float,
    ) -> List[SearchResult]:
        results: List[SearchResult] = []
        for set_id in candidates:
            score = scorer.score(q_counts, self.collection[set_id].counts)
            if score >= cutoff:
                results.append(SearchResult(set_id, score))
        return results

    # ------------------------------------------------------------------
    def brute_force(
        self,
        tokens: List[str],
        tau: float,
        measure: str = "tfidf",
        **measure_options,
    ) -> List[SearchResult]:
        """Reference scoring of the whole collection (tests, small data)."""
        cutoff = effective_threshold(tau)
        scorer = measure_from_name(
            measure, self.collection.stats, **measure_options
        )
        q_counts = tf_counts(list(tokens))
        out = [
            SearchResult(rec.set_id, scorer.score(q_counts, rec.counts))
            for rec in self.collection
        ]
        out = [r for r in out if r.score >= cutoff]
        out.sort(key=lambda r: (-r.score, r.set_id))
        return out
