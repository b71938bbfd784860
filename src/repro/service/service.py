"""The concurrent query service: caching, batching, deadlines.

The paper's algorithms answer one selection at a time; a serving
deployment amortizes work *across* queries.  :class:`SimilarityService`
wraps a :class:`~repro.core.search.SetSimilaritySearcher` (or an
:class:`~repro.core.updatable.UpdatableSearcher`) behind a facade that

* caches **results** in a generation-checked LRU cache
  (:mod:`repro.service.cache`) — any index mutation changes the
  searcher's version token and lazily invalidates it;
* executes **batches** in the calling thread: cache hits are replayed,
  identical in-batch misses are coalesced so a burst of duplicates costs
  one execution, and only the distinct misses are prepared and run;
* enforces per-query **deadlines** with graceful degradation: the
  deadline rides on the query's ``IOStats`` ledger and stops the query
  at its next page entry (:class:`~repro.core.errors.DeadlineExceeded`);
  the query then re-runs as ``SF`` with a *tightened* cutoff (higher
  threshold → stronger λ/window pruning → bounded work).  A degraded
  answer contains only exact, correct scores but may miss borderline
  results between the requested and tightened thresholds; it is always
  explicitly flagged, never silent.

When no deadline fires, service answers are **bit-identical** to
calling ``searcher.search_prepared`` directly — the service adds no
scoring path of its own.  Every query runs the algorithm it names (or
the configured default); an unknown name or a non-positive deadline is
rejected on entry, before the caches or the circuit breaker see the
call.  No query starts a thread: every execution runs in its caller's.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import AlgorithmResult, algorithm_names
from ..core.errors import (
    ConfigurationError,
    DeadlineExceeded,
    EmptyQueryError,
    UnknownAlgorithmError,
)
from ..core.query import PreparedQuery
from ..core.search import SetSimilaritySearcher
from ..faults import runtime as faults_runtime
from ..obs import metrics as obs_metrics
from .cache import GenerationLRUCache, result_cache_key
from .resilience import (
    AdmissionController,
    CircuitBreaker,
    RetryPolicy,
    call_with_retries,
)

DEGRADED_ALGORITHM = "sf"


def _check_algorithm(name: str) -> None:
    known = algorithm_names()
    if name not in known:
        raise UnknownAlgorithmError(name, known)


class ServiceConfig:
    """Tunables for :class:`SimilarityService`.

    Parameters
    ----------
    algorithm:
        Default selection algorithm (any registered name).
    max_workers:
        Accepted and ignored: every query runs in its caller's thread.
        It is neither stored nor validated, and stays only so existing
        callers that pass it keep working.
    result_cache_size:
        Result-cache capacity; ``0`` disables the cache.
    deadline_seconds:
        Default per-query deadline; ``None`` means no deadline.  The
        clock starts when the query starts executing and stops it at
        its next page entry.
    degrade_tighten:
        How far the fallback cutoff moves from ``tau`` toward ``1.0``
        on a deadline miss: ``tau' = tau + degrade_tighten * (1 - tau)``.
    retry_attempts / retry_base_delay / retry_max_delay / retry_seed:
        Bounded-retry policy for transient backend I/O failures
        (:class:`~repro.service.resilience.RetryPolicy`): total tries,
        exponential-backoff base and cap (seconds), and the jitter
        PRNG seed.
    breaker_threshold / breaker_reset_seconds:
        Circuit breaker: consecutive failures before opening, and how
        long it fails fast before admitting a half-open probe.
    max_inflight:
        Admission-control bound on concurrently admitted queries
        (batch weight = batch size); ``None`` disables shedding.
    """

    __slots__ = (
        "algorithm",
        "result_cache_size",
        "deadline_seconds",
        "degrade_tighten",
        "retry_attempts",
        "retry_base_delay",
        "retry_max_delay",
        "retry_seed",
        "breaker_threshold",
        "breaker_reset_seconds",
        "max_inflight",
    )

    def __init__(
        self,
        algorithm: str = "sf",
        max_workers: Optional[int] = None,
        result_cache_size: int = 1024,
        deadline_seconds: Optional[float] = None,
        degrade_tighten: float = 0.5,
        retry_attempts: int = 3,
        retry_base_delay: float = 0.05,
        retry_max_delay: float = 1.0,
        retry_seed: int = 0,
        breaker_threshold: int = 5,
        breaker_reset_seconds: float = 30.0,
        max_inflight: Optional[int] = None,
    ) -> None:
        _check_algorithm(algorithm)
        if not (0.0 < degrade_tighten <= 1.0):
            raise ConfigurationError("degrade_tighten must be in (0, 1]")
        if deadline_seconds is not None and deadline_seconds <= 0.0:
            raise ConfigurationError("deadline_seconds must be positive")
        if retry_attempts < 1:
            raise ConfigurationError("retry_attempts must be >= 1")
        if breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be >= 1")
        if breaker_reset_seconds <= 0.0:
            raise ConfigurationError("breaker_reset_seconds must be positive")
        if max_inflight is not None and max_inflight < 1:
            raise ConfigurationError("max_inflight must be >= 1")
        self.algorithm = algorithm
        self.result_cache_size = result_cache_size
        self.deadline_seconds = deadline_seconds
        self.degrade_tighten = degrade_tighten
        self.retry_attempts = retry_attempts
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self.retry_seed = retry_seed
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_seconds = breaker_reset_seconds
        self.max_inflight = max_inflight

    def degraded_tau(self, tau: float) -> float:
        """The tightened cutoff used after a deadline miss."""
        return min(1.0, tau + self.degrade_tighten * (1.0 - tau))


class ServiceResult:
    """One service answer: the algorithm result plus serving metadata.

    ``result`` is ``None`` only when ``error`` is set (e.g. an empty
    query in a batch).  ``degraded`` marks a deadline fallback: scores
    are exact but answers between ``tau`` and ``degraded_tau`` may be
    missing.  ``cached`` marks a result-cache replay; ``coalesced``
    marks a duplicate answered by another in-batch execution.
    """

    __slots__ = (
        "result",
        "tau",
        "algorithm",
        "cached",
        "coalesced",
        "degraded",
        "degraded_tau",
        "error",
        "wall_seconds",
    )

    def __init__(
        self,
        result: Optional[AlgorithmResult],
        tau: float,
        algorithm: str,
        cached: bool = False,
        coalesced: bool = False,
        degraded: bool = False,
        degraded_tau: Optional[float] = None,
        error: Optional[str] = None,
        wall_seconds: float = 0.0,
    ) -> None:
        self.result = result
        self.tau = tau
        self.algorithm = algorithm
        self.cached = cached
        self.coalesced = coalesced
        self.degraded = degraded
        self.degraded_tau = degraded_tau
        self.error = error
        self.wall_seconds = wall_seconds

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def results(self):
        """The answer list (empty when the query errored)."""
        return self.result.results if self.result is not None else []

    def to_dict(self, payload_fn=None) -> Dict[str, Any]:
        """JSON-ready representation (used by the HTTP endpoint)."""
        matches = []
        for r in self.results:
            match: Dict[str, Any] = {"id": r.set_id, "score": r.score}
            if payload_fn is not None:
                match["payload"] = payload_fn(r.set_id)
            matches.append(match)
        out: Dict[str, Any] = {
            "ok": self.ok,
            "algorithm": self.algorithm,
            "threshold": self.tau,
            "cached": self.cached,
            "degraded": self.degraded,
            "results": matches,
        }
        if self.degraded:
            out["degraded_threshold"] = self.degraded_tau
        if self.error is not None:
            out["error"] = self.error
        return out

    def __repr__(self) -> str:
        flags = [
            name
            for name in ("cached", "coalesced", "degraded")
            if getattr(self, name)
        ]
        suffix = f" [{','.join(flags)}]" if flags else ""
        return (
            f"ServiceResult(answers={len(self.results)}, "
            f"tau={self.tau}, alg={self.algorithm}{suffix})"
        )


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
class SimilarityService:
    """Concurrent selection serving over one searcher.

    Accepts a static or an updatable searcher::

        service = SimilarityService(searcher)            # static index
        service = SimilarityService(updatable_searcher)  # epoch updates

    Every query runs in the calling thread, so the service holds no
    threads; :meth:`close` (or the context manager) releases nothing and
    stays for callers that manage its lifetime.
    """

    def __init__(
        self,
        backend,
        config: Optional[ServiceConfig] = None,
        tokenizer=None,
    ) -> None:
        if not isinstance(backend, SetSimilaritySearcher):
            raise ConfigurationError(
                "backend must be a SetSimilaritySearcher or an "
                f"UpdatableSearcher, got {type(backend).__name__}"
            )
        self._searcher = backend
        # Force the lazy corpus statistics and lengths now, so
        # concurrent callers never race to initialize them mid-query.
        collection = backend.collection
        if collection.frozen and len(collection):
            collection.lengths()
        self.config = config or ServiceConfig()
        self.tokenizer = tokenizer
        self._results = (
            GenerationLRUCache(self.config.result_cache_size, name="result")
            if self.config.result_cache_size
            else None
        )
        self._counter_lock = threading.Lock()
        self._retry = RetryPolicy(
            attempts=self.config.retry_attempts,
            base_delay=self.config.retry_base_delay,
            max_delay=self.config.retry_max_delay,
            seed=self.config.retry_seed,
        )
        self._breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            reset_seconds=self.config.breaker_reset_seconds,
        )
        self._admission = AdmissionController(self.config.max_inflight)
        self.queries_served = 0
        self.degraded_count = 0
        self.coalesced_count = 0
        self.deadline_misses = 0

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Nothing to release: the service holds no threads."""

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admitting and wait for in-flight
        queries.  New arrivals are shed with
        :class:`~repro.core.errors.ServiceOverloadError` while draining.
        Returns True when everything in flight completed in time."""
        drained = self._admission.drain(timeout)
        self.close()
        return drained

    def __enter__(self) -> "SimilarityService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- caching --------------------------------------------------------
    def invalidate(self) -> int:
        """Drop every cached result; returns the number dropped.

        Rarely needed: version stamping already invalidates entries
        lazily after any index mutation.
        """
        return self._results.clear() if self._results is not None else 0

    def stats(self) -> Dict[str, Any]:
        """Serving counters plus result-cache hit/miss statistics.

        ``prepared_cache`` is always ``None``, the value a disabled cache
        reports: only results are cached, and perfbench's
        ``cache_ratios`` still reads the key.
        """
        return {
            "queries_served": self.queries_served,
            "degraded": self.degraded_count,
            "coalesced": self.coalesced_count,
            "deadline_misses": self.deadline_misses,
            "inflight": self._admission.inflight,
            "draining": self._admission.draining,
            "breaker_state": self._breaker.state_name,
            "result_cache": (
                self._results.stats() if self._results else None
            ),
            "prepared_cache": None,
        }

    # -- resilient execution -------------------------------------------
    def _execute_raw(
        self,
        prepared: PreparedQuery,
        tau: float,
        algorithm: str,
        expires: Optional[float],
    ) -> AlgorithmResult:
        faults_runtime.maybe_fire("service.execute")
        return self._searcher.search_prepared(
            prepared, tau, algorithm, deadline=expires
        )

    def _execute_resilient(
        self,
        prepared: PreparedQuery,
        tau: float,
        algorithm: str,
        expires: Optional[float] = None,
    ) -> AlgorithmResult:
        """One backend execution behind the breaker and retry policy.

        Transient I/O errors (real or injected at the
        ``service.execute`` fault point) are retried with jittered
        backoff, every try against the same absolute ``expires``;
        exhausted retries and unexpected failures feed the circuit
        breaker, which fails fast once ``breaker_threshold`` consecutive
        executions have failed.  A deadline miss is neither retried nor
        a failure: it says nothing about the backend's health, so it
        only ends a half-open probe.
        """
        self._breaker.allow()
        try:
            result = call_with_retries(
                self._execute_raw,
                prepared,
                tau,
                algorithm,
                expires,
                policy=self._retry,
            )
        except DeadlineExceeded:
            self._breaker.release_probe()
            raise
        except Exception:  # repro-check: allow-broad-except
            # Any failure flavour counts against the breaker; the
            # exception itself is re-raised untouched.
            self._breaker.record_failure()
            raise
        self._breaker.record_success()
        return result

    # -- single-query path ---------------------------------------------
    def search(
        self,
        tokens: Sequence[str],
        tau: float,
        algorithm: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> ServiceResult:
        """One selection through the admission, cache, and deadline
        machinery.

        Raises :class:`EmptyQueryError` for queries with no tokens
        (batch slots report it as ``error`` instead) and
        :class:`~repro.core.errors.ServiceOverloadError` when admission
        control sheds the query.
        """
        algorithm, deadline = self._resolve(algorithm, deadline)
        self._admission.acquire(1)
        try:
            return self._search_admitted(tokens, tau, algorithm, deadline)
        finally:
            self._admission.release(1)

    def _resolve(
        self, algorithm: Optional[str], deadline: Optional[float]
    ) -> Tuple[str, Optional[float]]:
        """The call's algorithm and deadline, or the configured defaults.

        Raises :class:`~repro.core.errors.UnknownAlgorithmError` or
        :class:`ConfigurationError` (a deadline that is not positive)
        before admission, the caches or the breaker see the call, so a
        bad request never counts as a backend failure.
        """
        if not algorithm:
            algorithm = self.config.algorithm  # checked by ServiceConfig
        elif algorithm != self.config.algorithm:
            _check_algorithm(algorithm)
        if deadline is None:
            return algorithm, self.config.deadline_seconds
        if not deadline > 0.0:
            raise ConfigurationError(
                f"deadline must be positive, got {deadline!r}"
            )
        return algorithm, deadline

    def _search_admitted(
        self,
        tokens: Sequence[str],
        tau: float,
        algorithm: str,
        deadline: Optional[float],
    ) -> ServiceResult:
        started = time.perf_counter()
        version = self._searcher.version
        key = result_cache_key(tuple(tokens), tau, algorithm)
        if self._results is not None:
            hit = self._results.get(key, version)
            if hit is not None:
                self._count(queries=1)
                wall = time.perf_counter() - started
                self._observe_latency(wall)
                return ServiceResult(
                    hit, tau, algorithm, cached=True, wall_seconds=wall,
                )
        prepared = self._searcher.prepare(tokens)
        out = self._settle(prepared, tau, algorithm, deadline, key, version)
        out.wall_seconds = time.perf_counter() - started
        self._observe_latency(out.wall_seconds)
        self._count(queries=1)
        return out

    def search_text(
        self,
        text: str,
        tau: float,
        algorithm: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> ServiceResult:
        """String front door (requires a tokenizer)."""
        if self.tokenizer is None:
            raise ConfigurationError(
                "search_text requires the service to be built with a "
                "tokenizer"
            )
        return self.search(
            self.tokenizer.tokens(text), tau, algorithm, deadline
        )

    def payload(self, set_id: int) -> Any:
        return self._searcher.collection.payload(set_id)

    def _count(
        self, queries: int = 0, degraded: int = 0, coalesced: int = 0,
        deadline_misses: int = 0,
    ) -> None:
        with self._counter_lock:
            self.queries_served += queries
            self.degraded_count += degraded
            self.coalesced_count += coalesced
            self.deadline_misses += deadline_misses
        registry = obs_metrics.get_registry()
        if not registry.enabled:
            return
        if queries:
            registry.counter(
                "service_queries_total",
                "Queries answered by the service facade "
                "(cached, coalesced, and degraded included).",
            ).inc(queries)
        if degraded:
            registry.counter(
                "deadline_degradations_total",
                "Queries answered by the tightened-threshold SF fallback.",
            ).inc(degraded)
        if coalesced:
            registry.counter(
                "coalesced_queries_total",
                "In-batch duplicates answered by another execution.",
            ).inc(coalesced)
        if deadline_misses:
            registry.counter(
                "deadline_misses_total",
                "Primary executions that exceeded their deadline.",
            ).inc(deadline_misses)

    def _observe_latency(self, wall_seconds: float) -> None:
        registry = obs_metrics.get_registry()
        if registry.enabled:
            registry.histogram(
                "service_request_latency_seconds",
                "Wall-clock latency of SimilarityService.search calls "
                "(cache hits included).",
            ).observe(wall_seconds)

    def _settle(
        self,
        prepared: PreparedQuery,
        tau: float,
        algorithm: str,
        deadline: Optional[float],
        key: Tuple,
        version,
        copies: int = 1,
    ) -> ServiceResult:
        """Run one execution in the calling thread and cache its answer.

        The deadline clock starts here, when the query starts executing.
        On a miss the query re-runs as SF at the tightened cutoff with
        no deadline; that answer is flagged, never cached, and counted
        once per query it serves (``copies``).
        """
        expires = None if deadline is None else time.perf_counter() + deadline
        try:
            result = self._execute_resilient(prepared, tau, algorithm, expires)
        except DeadlineExceeded:
            self._count(deadline_misses=1)
        else:
            if self._results is not None:
                self._results.put(key, version, result)
            return ServiceResult(result, tau, algorithm)
        fallback_tau = self.config.degraded_tau(tau)
        fallback = self._execute_resilient(
            prepared, fallback_tau, DEGRADED_ALGORITHM
        )
        self._count(degraded=copies)
        return ServiceResult(
            fallback,
            tau,
            algorithm,
            degraded=True,
            degraded_tau=fallback_tau,
        )

    # -- batch path -----------------------------------------------------
    def search_batch(
        self,
        queries: Sequence[Sequence[str]],
        tau: float,
        algorithm: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> List[ServiceResult]:
        """Execute a batch of token-set queries at one threshold.

        Returns one :class:`ServiceResult` per input, in input order;
        queries that tokenize to nothing get ``error`` slots rather than
        raising.  Every other query runs ``algorithm`` exactly as
        :meth:`search` would, with bit-identical answers.

        Admission control weighs the whole batch: when admitting
        ``len(queries)`` more queries would exceed ``max_inflight``,
        the batch is shed with
        :class:`~repro.core.errors.ServiceOverloadError`.
        """
        algorithm, deadline = self._resolve(algorithm, deadline)
        weight = max(len(queries), 1)
        self._admission.acquire(weight)
        try:
            return self._search_batch_admitted(
                queries, tau, algorithm, deadline
            )
        finally:
            self._admission.release(weight)

    def _search_batch_admitted(
        self,
        queries: Sequence[Sequence[str]],
        tau: float,
        algorithm: str,
        deadline: Optional[float],
    ) -> List[ServiceResult]:
        """Cache replay, coalescing, then one execution per distinct miss."""
        version = self._searcher.version
        out: List[Optional[ServiceResult]] = [None] * len(queries)

        # 1. Replay cache hits; group the misses by result key so
        #    identical in-batch queries execute once (coalescing).
        pending: Dict[Tuple, List[int]] = {}
        for i, tokens in enumerate(queries):
            looked = time.perf_counter()
            key = result_cache_key(tuple(tokens), tau, algorithm)
            if self._results is not None:
                hit = self._results.get(key, version)
                if hit is not None:
                    out[i] = ServiceResult(
                        hit, tau, algorithm, cached=True,
                        wall_seconds=time.perf_counter() - looked,
                    )
                    continue
            pending.setdefault(key, []).append(i)

        # 2. Prepare and run each distinct miss once, in first-slot order,
        #    in this thread.  Each deadline clock starts when its query
        #    starts, so no query is charged for time it spent queued; so
        #    does its wall clock, which its coalesced duplicates report
        #    too.  A query that prepares to nothing fills its slots with
        #    ``error``.
        for key, indices in pending.items():
            started = time.perf_counter()
            try:
                prepared = self._searcher.prepare(queries[indices[0]])
            except EmptyQueryError as exc:
                for i in indices:
                    out[i] = ServiceResult(None, tau, algorithm, error=str(exc))
                continue
            primary = self._settle(
                prepared,
                tau,
                algorithm,
                deadline,
                key,
                version,
                copies=len(indices),
            )
            primary.wall_seconds = time.perf_counter() - started
            out[indices[0]] = primary
            for duplicate in indices[1:]:
                out[duplicate] = ServiceResult(
                    primary.result,
                    tau,
                    algorithm,
                    coalesced=True,
                    degraded=primary.degraded,
                    degraded_tau=primary.degraded_tau,
                    wall_seconds=primary.wall_seconds,
                )
                self._count(coalesced=1)
        self._count(
            queries=sum(1 for r in out if r is not None and r.ok)
        )
        return out  # type: ignore[return-value]  # every slot is filled

    def __repr__(self) -> str:
        return (
            f"SimilarityService(served={self.queries_served}, "
            f"degraded={self.degraded_count})"
        )


__all__ = [
    "DEGRADED_ALGORITHM",
    "ServiceConfig",
    "ServiceResult",
    "SimilarityService",
]
