"""Shared infrastructure for the selection algorithms.

Every algorithm implements the same contract: given an
:class:`~repro.storage.invlist.InvertedIndex` and a
:class:`~repro.core.query.PreparedQuery`, return every set id whose IDF
similarity with the query is at least ``tau``, together with its exact score
and the I/O ledger accumulated while finding it.  That uniform contract is
what lets the benchmark harness swap algorithms freely and what lets the
tests check every algorithm against the brute-force reference.

:class:`QueryLists` resolves a prepared query against an index: it opens one
weight-order cursor per query token that actually has postings, keeping the
squared idfs aligned with the open cursors (tokens absent from the corpus
have empty lists and can never contribute to a score, but they still count
toward ``len(q)`` — the prepared query already handled that).
"""

from __future__ import annotations

import time
from typing import Dict, Generator, Iterator, List, Optional, Tuple

from ..contracts import (
    ContractViolation,
    check_length_window,
    invariants_enabled,
)
from ..core.errors import UnknownAlgorithmError
from ..core.properties import effective_threshold
from ..core.query import PreparedQuery
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..storage.invlist import InvertedIndex, WeightOrderCursor
from ..storage.pages import IOStats

__all__ = [
    "SearchResult",
    "AlgorithmResult",
    "QueryLists",
    "SelectionAlgorithm",
    "StreamingAlgorithm",
    "register_algorithm",
    "algorithm_names",
    "make_algorithm",
]


class SearchResult:
    """One answer: a set id and its exact IDF similarity."""

    __slots__ = ("set_id", "score")

    def __init__(self, set_id: int, score: float) -> None:
        self.set_id = set_id
        self.score = score

    def __iter__(self):
        return iter((self.set_id, self.score))

    def __eq__(self, other) -> bool:
        # Intentional exact comparison: equality here means "the same
        # answer object", not "equivalent score".
        return (  # repro-check: allow-float-eq
            (self.set_id, self.score) == (other.set_id, other.score)
        )

    def __repr__(self) -> str:
        return f"SearchResult(id={self.set_id}, score={self.score:.4f})"


class AlgorithmResult:
    """Answers plus execution telemetry.

    ``elements_total`` is the combined length of the query's inverted lists
    — the denominator of the paper's *pruning power* metric
    (``1 - elements_read / elements_total``).
    """

    __slots__ = (
        "algorithm",
        "results",
        "stats",
        "elements_total",
        "wall_seconds",
        "peak_candidates",
    )

    def __init__(
        self,
        algorithm: str,
        results: List[SearchResult],
        stats: IOStats,
        elements_total: int,
        wall_seconds: float = 0.0,
        peak_candidates: int = 0,
    ) -> None:
        self.algorithm = algorithm
        self.results = sorted(results, key=lambda r: (-r.score, r.set_id))
        self.stats = stats
        self.elements_total = elements_total
        self.wall_seconds = wall_seconds
        self.peak_candidates = peak_candidates

    @property
    def pruning_power(self) -> float:
        """Fraction of the query's list elements never read (paper, §VIII-C)."""
        if self.elements_total == 0:
            return 1.0
        read = self.stats.elements_read
        if read > self.elements_total and invariants_enabled():
            raise ContractViolation(
                "io-accounting",
                f"{self.algorithm} charged {read} element reads against "
                f"lists totalling {self.elements_total} entries; a "
                "per-query ledger over-counted",
            )
        read = min(read, self.elements_total)
        return 1.0 - read / self.elements_total

    def ids(self) -> List[int]:
        return [r.set_id for r in self.results]

    def __len__(self) -> int:
        return len(self.results)

    def __repr__(self) -> str:
        return (
            f"AlgorithmResult({self.algorithm}, answers={len(self.results)}, "
            f"pruning={self.pruning_power:.3f})"
        )


class QueryLists:
    """A prepared query resolved against an index: open cursors + weights.

    Attributes are aligned: ``cursors[i]`` is the weight-order cursor for the
    token with squared idf ``idf_squared[i]``; tokens whose lists are empty
    are dropped (they contribute nothing to any score).  Order follows the
    prepared query: decreasing idf.
    """

    __slots__ = (
        "query",
        "cursors",
        "idf_squared",
        "tokens",
        "elements_total",
        "stats",
    )

    def __init__(
        self,
        index: InvertedIndex,
        query: PreparedQuery,
        stats: IOStats,
        use_skip_lists: bool = True,
        order: str = "weight",
    ) -> None:
        self.query = query
        self.stats = stats
        self.cursors: List[WeightOrderCursor] = []
        self.idf_squared: List[float] = []
        self.tokens: List[str] = []
        total = 0
        for token, idf_sq in zip(query.tokens, query.idf_squared):
            if order == "weight":
                cursor = index.cursor(token, stats, use_skip_list=use_skip_lists)
            else:
                cursor = index.id_cursor(token, stats)
            if cursor is None or len(cursor) == 0:
                continue
            self.cursors.append(cursor)
            self.idf_squared.append(idf_sq)
            self.tokens.append(token)
            total += len(cursor)
        self.elements_total = total

    def __len__(self) -> int:
        return len(self.cursors)

    def contribution(self, list_index: int, set_length: float) -> float:
        """``w_i(s)`` for the i-th open list and a set of the given length."""
        denom = set_length * self.query.length
        if denom <= 0.0:
            return 0.0
        return self.idf_squared[list_index] / denom


class SelectionAlgorithm:
    """Base class: configuration knobs + the timed ``search`` entry point.

    Parameters
    ----------
    index:
        The inverted index to search.
    use_length_bounds:
        Apply Theorem 1 (seek lists to ``tau*len(q)``, stop at
        ``len(q)/tau``).  Disabled for the paper's *NLB* ablation (Fig. 8).
    use_skip_lists:
        Seek with the per-list skip index instead of scan-and-discard.
        Disabled for the *NSL* ablation (Fig. 9).  Irrelevant when
        ``use_length_bounds`` is False (there is nothing to seek to).
    """

    name = "abstract"
    list_order = "weight"

    def __init__(
        self,
        index: InvertedIndex,
        use_length_bounds: bool = True,
        use_skip_lists: bool = True,
        buffer_pool_pages: Optional[int] = None,
    ) -> None:
        self.index = index
        self.use_length_bounds = use_length_bounds
        self.use_skip_lists = use_skip_lists
        self.buffer_pool_pages = buffer_pool_pages
        self._length_floor = 0.0

    # ------------------------------------------------------------------
    def search(
        self,
        query: PreparedQuery,
        tau: float,
        length_floor: float = 0.0,
        deadline: Optional[float] = None,
    ) -> AlgorithmResult:
        """Run the selection and time it.

        Internally the comparison threshold is ``tau - SCORE_EPSILON`` (see
        :data:`repro.core.properties.SCORE_EPSILON`), consistently across
        every algorithm and the brute-force reference.

        ``length_floor`` restricts answers to sets with normalized length
        at least the floor — an *additional* constraint intersected with
        the Theorem 1 window.  The self-join uses it to visit only
        partners at least as long as the probe, halving its reads; plain
        selections leave it at 0.

        ``deadline`` is an absolute ``time.perf_counter()`` value: once it
        has passed, the query's next page entry raises
        :class:`~repro.core.errors.DeadlineExceeded`.
        """
        tau = effective_threshold(tau)
        self._length_floor = max(0.0, length_floor)
        if self.buffer_pool_pages:
            from ..storage.buffer import BufferedIOStats

            stats: IOStats = BufferedIOStats(self.buffer_pool_pages)
        else:
            stats = IOStats()
        stats.deadline = deadline
        started = time.perf_counter()
        with obs_trace.span("query", algo=self.name, tau=tau) as query_span:
            lists = QueryLists(
                self.index,
                query,
                stats,
                use_skip_lists=self.use_skip_lists,
                order=self.list_order,
            )
            results, peak = self._run(lists, tau)
            query_span.note(answers=len(results), lists=len(lists))
        if self._length_floor > 0.0 and results:
            # Algorithms without a window (classic NRA/TA, sort-by-id) do
            # not enforce the floor while scanning; filter uniformly here
            # so the contract holds for every algorithm.
            lengths = self.index.collection.lengths()
            floor = self._length_floor
            results = [
                r for r in results if lengths[r.set_id] >= floor
            ]
        if invariants_enabled():
            self._check_result_contracts(query, tau, results)
        elapsed = time.perf_counter() - started
        result = AlgorithmResult(
            algorithm=self.name,
            results=results,
            stats=stats,
            elements_total=lists.elements_total,
            wall_seconds=elapsed,
            peak_candidates=peak,
        )
        self._observe(result, lists)
        return result

    def _check_result_contracts(
        self,
        query: PreparedQuery,
        tau: float,
        results: List[SearchResult],
    ) -> None:
        """Invariants every exact answer set satisfies, whatever the
        algorithm or ablation flags: Theorem 1's length window (answers
        obey it even when pruning never used it), scores at or above the
        effective threshold, and no duplicate ids.

        Indexes without a backing collection (test doubles with
        deliberately decoupled statistics) skip the length-window check —
        Theorem 1 presumes lengths and idfs come from the same corpus.
        """
        collection = getattr(self.index, "collection", None)
        if collection is not None:
            lengths = collection.lengths()
            check_length_window(
                ((r.set_id, lengths[r.set_id]) for r in results),
                query.length,
                tau,
                floor=self._length_floor,
                source=f"{self.name} result set",
            )
        seen = set()
        for r in results:
            if r.score < tau:
                raise ContractViolation(
                    "magnitude-boundedness",
                    f"{self.name} reported set {r.set_id} with score "
                    f"{r.score!r} below the effective threshold {tau!r}",
                )
            if r.set_id in seen:
                raise ContractViolation(
                    "order-preservation",
                    f"{self.name} reported set {r.set_id} twice; a set "
                    "must be resolved exactly once",
                )
            seen.add(r.set_id)

    def _observe(
        self, result: AlgorithmResult, lists: QueryLists
    ) -> None:
        """Flush the query's ledger into the global metrics registry.

        Runs once per query — per-posting accounting stays inside
        :class:`~repro.storage.pages.IOStats`, so the disabled cost is a
        single ``registry.enabled`` test (``bench_obs_overhead.py`` keeps
        it under 2% on the SF hot path).
        """
        registry = obs_metrics.get_registry()
        if not registry.enabled:
            return
        algo = self.name
        stats = result.stats
        registry.counter(
            "queries_total", "Selection queries executed.", ("algo",)
        ).labels(algo=algo).inc()
        registry.histogram(
            "query_latency_seconds",
            "End-to-end selection latency in seconds.",
            ("algo",),
        ).labels(algo=algo).observe(result.wall_seconds)
        registry.counter(
            "elements_read_total",
            "Inverted-list elements consumed (the paper's access-cost unit).",
            ("algo",),
        ).labels(algo=algo).inc(stats.elements_read)
        pruned = sum(1 for cursor in lists.cursors if not cursor.exhausted())
        registry.counter(
            "lists_pruned_total",
            "Query lists abandoned before exhaustion (pruning wins).",
            ("algo",),
        ).labels(algo=algo).inc(pruned)
        pages = registry.counter(
            "pages_read_total",
            "Simulated page reads billed to disk.",
            ("algo", "kind"),
        )
        pages.labels(algo=algo, kind="sequential").inc(stats.sequential_pages)
        pages.labels(algo=algo, kind="random").inc(stats.random_pages)
        registry.counter(
            "skip_jumps_total",
            "Skip-list jumps taken during length seeks.",
            ("algo",),
        ).labels(algo=algo).inc(stats.skip_jumps)
        registry.counter(
            "hash_probes_total",
            "Extendible-hash containment probes (TA-style random I/O).",
            ("algo",),
        ).labels(algo=algo).inc(stats.hash_probes)
        buffer_hits = getattr(stats, "buffer_hits", 0)
        if buffer_hits:
            registry.counter(
                "buffer_hits_total",
                "Page reads absorbed by the LRU buffer pool.",
                ("algo",),
            ).labels(algo=algo).inc(buffer_hits)

    def _run(
        self, lists: QueryLists, tau: float
    ) -> Tuple[List[SearchResult], int]:
        """Algorithm body; returns (answers, peak candidate count)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _bounds(self, lists: QueryLists, tau: float) -> Tuple[float, float]:
        """The active length window: Theorem 1 if enabled, intersected with
        any caller-imposed length floor."""
        if self.use_length_bounds:
            lo, hi = lists.query.bounds(tau)
        else:
            lo, hi = 0.0, float("inf")
        return max(lo, self._length_floor), hi

    def __repr__(self) -> str:
        flags = []
        if not self.use_length_bounds:
            flags.append("NLB")
        if not self.use_skip_lists:
            flags.append("NSL")
        suffix = f" [{' '.join(flags)}]" if flags else ""
        return f"{type(self).__name__}{suffix}"


class StreamingAlgorithm(SelectionAlgorithm):  # repro-check: abstract-algorithm
    """An algorithm whose answers are final the moment it finds them.

    Subclasses implement ``_stream``: a generator that yields each answer
    as it is confirmed and returns the peak candidate count.  ``_run``
    drains it for :meth:`search`; :meth:`stream` hands it to callers that
    may stop early (:func:`~repro.algorithms.streaming.stream_search`).
    """

    def _stream(
        self, lists: QueryLists, tau: float
    ) -> Generator[SearchResult, None, int]:
        raise NotImplementedError

    def _run(
        self, lists: QueryLists, tau: float
    ) -> Tuple[List[SearchResult], int]:
        results: List[SearchResult] = []
        stream = self._stream(lists, tau)
        while True:
            try:
                results.append(next(stream))
            except StopIteration as done:
                return results, done.value

    def stream(
        self,
        query: PreparedQuery,
        tau: float,
        stats: Optional[IOStats] = None,
    ) -> Iterator[SearchResult]:
        """Yield answers as they are confirmed.  Lists are opened on the
        first ``next()``, and dropping the generator stops all reads."""
        lists = QueryLists(
            self.index,
            query,
            stats if stats is not None else IOStats(),
            use_skip_lists=self.use_skip_lists,
            order=self.list_order,
        )
        yield from self._stream(lists, effective_threshold(tau))


_REGISTRY: Dict[str, type] = {}


def register_algorithm(cls: type) -> type:
    """Class decorator adding an algorithm to the by-name registry."""
    _REGISTRY[cls.name] = cls
    return cls


def algorithm_names() -> List[str]:
    return sorted(_REGISTRY)


def make_algorithm(
    name: str, index: InvertedIndex, **kwargs
) -> SelectionAlgorithm:
    """Instantiate a registered algorithm by name (see :func:`algorithm_names`)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise UnknownAlgorithmError(name, list(_REGISTRY)) from None
    return cls(index, **kwargs)
