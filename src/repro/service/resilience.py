"""Service resilience primitives: retry, circuit breaker, admission.

Three small machines sit between :class:`SimilarityService` and its
backend, turning infrastructure failures (real, or injected by
:mod:`repro.faults`) into bounded, observable behaviour:

* :class:`RetryPolicy` / :func:`call_with_retries` — bounded retries
  with exponential backoff and **full jitter**
  (``uniform(0, min(max_delay, base * 2**attempt))``) for
  :class:`~repro.faults.errors.TransientIOError`.  The jitter PRNG is
  seeded and the sleeper injectable, so tests replay exact backoff
  sequences without sleeping.
* :class:`CircuitBreaker` — per-backend closed → open → half-open.
  After ``threshold`` consecutive failures the breaker fails fast with
  :class:`~repro.core.errors.CircuitOpenError` (no backend call) until
  ``reset_seconds`` pass on an injectable monotonic clock; the next
  call is a half-open probe whose outcome closes or re-opens it; an
  attempt stopped by its deadline judges nothing and only frees the
  probe slot.
* :class:`AdmissionController` — bounded in-flight work.  Arrivals that
  would exceed ``max_inflight`` are shed immediately with
  :class:`~repro.core.errors.ServiceOverloadError` (the HTTP layer maps
  it to 503 + ``Retry-After``) instead of queueing unboundedly; a
  draining controller sheds everything new while :meth:`drain` waits
  for in-flight queries to finish.

Metrics (through the PR-3 registry, when enabled): ``retries_total``,
``retry_backoff_seconds``, ``breaker_state``, ``queries_shed_total``
(by reason), ``service_inflight_queries``.  Knob-to-behaviour mapping
lives in ``docs/robustness.md``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional, Tuple, Type

from ..core.errors import CircuitOpenError, ServiceOverloadError
from ..faults.errors import TransientIOError
from ..obs import metrics as obs_metrics

__all__ = [
    "RetryPolicy",
    "call_with_retries",
    "CircuitBreaker",
    "AdmissionController",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = 0
BREAKER_OPEN = 1
BREAKER_HALF_OPEN = 2

_STATE_NAMES = {
    BREAKER_CLOSED: "closed",
    BREAKER_OPEN: "open",
    BREAKER_HALF_OPEN: "half-open",
}


class RetryPolicy:
    """Bounded retries with seeded exponential backoff + full jitter.

    ``attempts`` counts *total* tries (1 = no retries).  Delay before
    retry ``k`` (0-based) is drawn uniformly from
    ``[0, min(max_delay, base_delay * 2**k))`` — AWS-style full jitter,
    which decorrelates retry storms better than equal jitter.  The draw
    comes from one seeded PRNG under a lock, so a single-threaded test
    sees a reproducible delay sequence; ``sleeper`` defaults to
    :func:`time.sleep` and is replaced by a recording stub in tests.
    """

    def __init__(
        self,
        attempts: int = 3,
        base_delay: float = 0.05,
        max_delay: float = 1.0,
        seed: int = 0,
        sleeper: Optional[Callable[[float], None]] = None,
        retryable: Tuple[Type[BaseException], ...] = (TransientIOError,),
    ) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.seed = seed
        self.sleeper = sleeper if sleeper is not None else time.sleep
        self.retryable = retryable
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def backoff(self, retry_index: int) -> float:
        """Jittered delay before 0-based retry ``retry_index``."""
        ceiling = min(self.max_delay, self.base_delay * (2 ** retry_index))
        with self._lock:
            return self._rng.uniform(0.0, ceiling)

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(attempts={self.attempts}, "
            f"base={self.base_delay}, max={self.max_delay})"
        )


def call_with_retries(fn: Callable, *args, policy: RetryPolicy):
    """Invoke ``fn(*args)``, retrying per ``policy`` on retryable errors.

    Non-retryable exceptions propagate immediately; the last retryable
    error propagates after the attempt budget is spent.  Each retry
    bumps ``retries_total`` and records its backoff in the
    ``retry_backoff_seconds`` histogram.
    """
    registry = obs_metrics.get_registry()
    last: Optional[BaseException] = None
    for attempt in range(policy.attempts):
        try:
            return fn(*args)
        except policy.retryable as exc:
            last = exc
            if attempt == policy.attempts - 1:
                break
            delay = policy.backoff(attempt)
            if registry.enabled:
                registry.counter(
                    "retries_total",
                    "Backend calls retried after a transient failure.",
                ).inc()
                registry.histogram(
                    "retry_backoff_seconds",
                    "Jittered backoff slept before each retry.",
                    buckets=(
                        0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
                    ),
                ).observe(delay)
            if delay > 0.0:
                policy.sleeper(delay)
    assert last is not None  # the loop either returned or recorded an error
    raise last


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe.

    ``allow()`` is called before each backend attempt: it raises
    :class:`CircuitOpenError` while open, and admits exactly one probe
    at a time once ``reset_seconds`` have elapsed (half-open).  The
    caller reports the outcome via :meth:`record_success` /
    :meth:`record_failure`, or :meth:`release_probe` for an attempt
    that says nothing about the backend.  The ``breaker_state`` gauge mirrors the
    state (0 closed / 1 open / 2 half-open).
    """

    def __init__(
        self,
        threshold: int = 5,
        reset_seconds: float = 30.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_seconds <= 0:
            raise ValueError("reset_seconds must be positive")
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self.clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> int:
        with self._lock:
            return self._state

    @property
    def state_name(self) -> str:
        return _STATE_NAMES[self.state]

    def _set_state(self, state: int) -> None:
        # Caller holds the lock.
        self._state = state
        registry = obs_metrics.get_registry()
        if registry.enabled:
            registry.gauge(
                "breaker_state",
                "Circuit breaker state: 0 closed, 1 open, 2 half-open.",
            ).set(state)

    def allow(self) -> None:
        """Admit one attempt or raise :class:`CircuitOpenError`."""
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return
            if self._state == BREAKER_OPEN:
                remaining = (
                    self._opened_at + self.reset_seconds - self.clock()
                )
                if remaining > 0.0:
                    raise CircuitOpenError(
                        f"circuit breaker open for another "
                        f"{remaining:.3f}s after {self._failures} "
                        "consecutive failures",
                        retry_after=max(remaining, 0.001),
                    )
                self._set_state(BREAKER_HALF_OPEN)
                self._probing = False
            # Half-open: exactly one in-flight probe decides the state.
            if self._probing:
                raise CircuitOpenError(
                    "circuit breaker half-open: a probe is already "
                    "in flight",
                    retry_after=self.reset_seconds,
                )
            self._probing = True

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probing = False
            if self._state != BREAKER_CLOSED:
                self._set_state(BREAKER_CLOSED)

    def release_probe(self) -> None:
        """End an attempt without judging the backend (a deadline miss):
        a half-open probe slot is freed and the state is left as is."""
        with self._lock:
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._probing = False
            if (
                self._state == BREAKER_HALF_OPEN
                or self._failures >= self.threshold
            ):
                self._opened_at = self.clock()
                if self._state != BREAKER_OPEN:
                    self._set_state(BREAKER_OPEN)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state_name}, "
            f"failures={self._failures}/{self.threshold})"
        )


class AdmissionController:
    """Bounded in-flight work with load shedding and drain support.

    ``max_inflight=None`` disables the bound but keeps in-flight
    accounting (needed for :meth:`drain`).  ``acquire(weight)`` either
    admits the work or raises :class:`ServiceOverloadError` at once —
    there is no hidden queue to build unbounded latency in.
    """

    def __init__(self, max_inflight: Optional[int] = None) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self._inflight = 0
        self._draining = False
        self._cond = threading.Condition()

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def _shed(self, weight: int, reason: str) -> None:
        registry = obs_metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "queries_shed_total",
                "Queries rejected by admission control.",
                ("reason",),
            ).labels(reason=reason).inc(weight)

    def acquire(self, weight: int = 1) -> None:
        """Admit ``weight`` queries or shed them with an overload error."""
        with self._cond:
            if self._draining:
                self._shed(weight, "draining")
                raise ServiceOverloadError(
                    "service is draining for shutdown", retry_after=5.0
                )
            if (
                self.max_inflight is not None
                and self._inflight + weight > self.max_inflight
            ):
                self._shed(weight, "overload")
                raise ServiceOverloadError(
                    f"service at capacity ({self._inflight} in flight, "
                    f"limit {self.max_inflight})",
                    retry_after=1.0,
                )
            self._inflight += weight
            self._observe_inflight()

    def release(self, weight: int = 1) -> None:
        with self._cond:
            self._inflight = max(0, self._inflight - weight)
            self._observe_inflight()
            if self._inflight == 0:
                self._cond.notify_all()

    def _observe_inflight(self) -> None:
        # Caller holds the lock.
        registry = obs_metrics.get_registry()
        if registry.enabled:
            registry.gauge(
                "service_inflight_queries",
                "Queries currently admitted and executing.",
            ).set(self._inflight)

    def begin_drain(self) -> None:
        """Stop admitting; arrivals now shed with reason ``draining``."""
        with self._cond:
            self._draining = True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Begin draining and wait for in-flight work to finish.

        Returns True when the service emptied, False on timeout (the
        controller stays draining either way).
        """
        with self._cond:
            self._draining = True
            return self._cond.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    def resume(self) -> None:
        """Leave draining mode (tests and planned restarts)."""
        with self._cond:
            self._draining = False

    def __repr__(self) -> str:
        return (
            f"AdmissionController(inflight={self.inflight}, "
            f"max={self.max_inflight}, draining={self.draining})"
        )
