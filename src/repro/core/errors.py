"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
being able to distinguish configuration mistakes from data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """An invalid parameter or an inconsistent combination of options."""


class InvalidThresholdError(ConfigurationError):
    """A similarity threshold outside the half-open interval (0, 1]."""

    def __init__(self, threshold: float) -> None:
        super().__init__(
            f"threshold must satisfy 0 < tau <= 1, got {threshold!r}"
        )
        self.threshold = threshold


class EmptyQueryError(ReproError):
    """A query that produced no tokens (nothing to search for)."""


class UnknownAlgorithmError(ConfigurationError):
    """A selection-algorithm name that the registry does not know."""

    def __init__(self, name: str, known: list) -> None:
        super().__init__(
            f"unknown algorithm {name!r}; known algorithms: {sorted(known)}"
        )
        self.name = name
        self.known = sorted(known)


class IndexNotBuiltError(ReproError):
    """An operation that requires a built index was attempted before build."""


class StorageError(ReproError):
    """A failure in the simulated storage layer (pages, hashing, trees)."""


class CorruptIndexError(StorageError):
    """A persisted index failed integrity checks and could not be recovered.

    ``report`` is the :class:`repro.storage.persist.RecoveryReport`
    describing exactly which generations and components were damaged and
    what recovery was attempted (typed loosely here: ``core`` sits below
    ``storage`` in the layering DAG).
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class ServiceOverloadError(ReproError):
    """Admission control shed this query: the service queue is full.

    ``retry_after`` is the suggested back-off in seconds (surfaced as the
    HTTP ``Retry-After`` header by the service's HTTP front end).
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class CircuitOpenError(ReproError):
    """The service's circuit breaker is open: the backend is failing fast.

    Raised without touching the backend while the breaker cools down;
    callers should treat it like overload (retry later).
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceeded(ReproError):
    """A query passed its deadline; raised at its next page entry.

    The storage layer checks the per-query deadline on its
    :class:`~repro.storage.pages.IOStats` ledger each time a query
    touches disk, so the query stops there and its partial work is
    discarded.  The service turns it into a degraded fallback answer.
    """


class SchemaError(ReproError):
    """A relational operation referenced a column that does not exist."""
