"""High-level facade: build an index once, search it with any algorithm.

:class:`SetSimilaritySearcher` operates on token sets (the library's native
unit); :class:`StringMatcher` wraps it with a tokenizer for the common
data-cleaning workflow of the paper's introduction — matching dirty strings
against a reference table.

>>> from repro import StringMatcher
>>> matcher = StringMatcher(["Main St., Main", "Main St., Maine", "Elm Ave"])
>>> matcher.match("Main St., Mane", threshold=0.5)   # doctest: +SKIP
[("Main St., Maine", 0.87...), ("Main St., Main", 0.79...)]
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # annotation-only: keeps core below algorithms in the DAG
    from ..algorithms.base import AlgorithmResult, SearchResult

from ..storage.invlist import InvertedIndex
from .collection import SetCollection
from .errors import EmptyQueryError
from .properties import effective_threshold
from .query import PreparedQuery
from .tokenize import QGramTokenizer, Tokenizer

DEFAULT_ALGORITHM = "sf"

# Bound on first use by _algorithm_factory(); keeps the algorithms layer
# out of core's module-level imports without paying the sys.modules
# lookup of a function-body import on every search.
_make_algorithm = None


def _algorithm_factory():
    # Late registry lookup, same rationale as in join.py: dispatch to
    # the algorithms layer without a module-level upward import.
    global _make_algorithm
    if _make_algorithm is None:
        from ..algorithms.base import make_algorithm

        _make_algorithm = make_algorithm
    return _make_algorithm


class SetSimilaritySearcher:
    """An inverted index over a collection plus algorithm dispatch.

    ``index_options`` go to :class:`~repro.storage.invlist.InvertedIndex`.
    Every algorithm can run on the index: the hash indexes TA/iTA probe
    and the id-ordered lists sort-by-id merges are built per list on
    first use, so a searcher that only runs SF, iNRA or Hybrid never
    builds them.
    """

    def __init__(
        self, collection: SetCollection, **index_options: Any
    ) -> None:
        self.index = InvertedIndex(collection, **index_options)

    @property
    def collection(self) -> SetCollection:
        return self.index.collection

    @property
    def version(self) -> Tuple[Any, ...]:
        """Cache-invalidation token: changes whenever the indexed content
        does (the service layer stamps its cache entries with it)."""
        collection = self.collection
        return (id(collection), collection.generation)

    # ------------------------------------------------------------------
    def prepare(self, tokens: Sequence[str]) -> PreparedQuery:
        return PreparedQuery(tokens, self.collection.stats)

    def search(
        self,
        tokens: Sequence[str],
        threshold: float,
        algorithm: str = DEFAULT_ALGORITHM,
        **algorithm_options: Any,
    ) -> AlgorithmResult:
        """Selection: all sets with IDF similarity >= threshold."""
        query = self.prepare(tokens)
        return self.search_prepared(
            query, threshold, algorithm, **algorithm_options
        )

    def search_prepared(
        self,
        query: PreparedQuery,
        threshold: float,
        algorithm: str = DEFAULT_ALGORITHM,
        deadline: Optional[float] = None,
        **algorithm_options: Any,
    ) -> AlgorithmResult:
        """Run a prepared query on the current index.

        The index is read once, so the whole query sees one snapshot; a
        query prepared under other statistics is re-prepared under the
        snapshot's.  ``deadline`` (absolute ``time.perf_counter()``)
        stops the query at its next page entry with
        :class:`~repro.core.errors.DeadlineExceeded`.
        """
        index = self.index
        query = query.under(index.collection.stats)
        alg = _algorithm_factory()(algorithm, index, **algorithm_options)
        return alg.search(query, threshold, deadline=deadline)

    def top_k(self, tokens: Sequence[str], k: int) -> AlgorithmResult:
        """The k most similar sets (future-work extension, Section X)."""
        from ..algorithms.topk import TopKSearcher

        index = self.index
        return TopKSearcher(
            index, use_skip_lists=index.with_skip_lists
        ).search(PreparedQuery(tokens, index.collection.stats), k)

    def search_or_suggest(
        self,
        tokens: Sequence[str],
        threshold: float,
        suggestions: int = 3,
        algorithm: str = DEFAULT_ALGORITHM,
    ) -> Tuple[List[SearchResult], bool]:
        """Threshold selection with a did-you-mean fallback.

        Returns ``(results, matched)``: the threshold answers with
        ``matched=True`` when any exist, otherwise the top
        ``suggestions`` below-threshold candidates with ``matched=False``
        (empty when nothing overlaps at all).
        """
        result = self.search(tokens, threshold, algorithm)
        if result.results:
            return list(result.results), True
        return list(self.top_k(tokens, suggestions).results), False

    def brute_force(
        self, tokens: Sequence[str], threshold: float
    ) -> List[SearchResult]:
        """Reference answer by scoring every set — used by tests and for
        small collections where index overhead is not worth it.  A score
        adds ``idf² / (len(s)·len(q))`` per matched token in the query's
        token order, as SF does, so SF's scores match it bit for bit."""
        from ..algorithms.base import SearchResult

        try:
            query = self.prepare(tokens)
        except EmptyQueryError:
            return []
        cutoff = effective_threshold(threshold)
        out: List[SearchResult] = []
        lengths = self.collection.lengths()
        weighted = tuple(zip(query.tokens, query.idf_squared))
        for rec in self.collection:
            denom = lengths[rec.set_id] * query.length
            if denom <= 0.0:
                continue
            counts = rec.counts
            score = 0.0
            for token, idf_squared in weighted:
                if token in counts:
                    score += idf_squared / denom
            if score >= cutoff:
                out.append(SearchResult(rec.set_id, score))
        out.sort(key=lambda r: (-r.score, r.set_id))
        return out


class StringMatcher:
    """String-level convenience API for data-cleaning lookups.

    Builds a q-gram searcher over a list of strings; ``match`` returns
    ``(string, score)`` pairs above the threshold, best first.
    """

    def __init__(
        self,
        strings: Sequence[str],
        tokenizer: Optional[Tokenizer] = None,
        **searcher_options: Any,
    ) -> None:
        self.tokenizer = tokenizer or QGramTokenizer(q=3)
        self.strings = list(strings)
        self.collection = SetCollection.from_strings(
            self.strings, self.tokenizer
        )
        self.searcher = SetSimilaritySearcher(
            self.collection, **searcher_options
        )

    def match(
        self,
        query: str,
        threshold: float,
        algorithm: str = DEFAULT_ALGORITHM,
    ) -> List[Tuple[str, float]]:
        """All stored strings with similarity >= threshold, best first."""
        tokens = self.tokenizer.tokens(query)
        if not tokens:
            return []
        result = self.searcher.search(tokens, threshold, algorithm)
        return [
            (self.collection.payload(r.set_id), r.score)
            for r in result.results
        ]

    def best_matches(self, query: str, k: int = 5) -> List[Tuple[str, float]]:
        """The k most similar stored strings (top-k extension)."""
        tokens = self.tokenizer.tokens(query)
        if not tokens:
            return []
        result = self.searcher.top_k(tokens, k)
        return [
            (self.collection.payload(r.set_id), r.score)
            for r in result.results
        ]
