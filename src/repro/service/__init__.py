"""Concurrent query serving over the selection algorithms.

The ``service`` layer sits above ``algorithms`` in the package DAG and
turns the one-query-at-a-time library into a throughput-oriented
server: generation-checked LRU caches for prepared queries and results,
in-thread batch execution with rare-token locality sorting and
request coalescing, per-query deadlines that stop a query at its next
page entry and fall back to an explicitly flagged SF answer, and a
stdlib JSON-over-HTTP front end (``repro serve``).

See ``docs/service.md`` for the architecture and guarantees.
"""

from .cache import (
    GenerationLRUCache,
    prepared_cache_key,
    result_cache_key,
)
from .httpd import ServiceHTTPServer
from .resilience import (
    AdmissionController,
    CircuitBreaker,
    RetryPolicy,
    call_with_retries,
)
from .service import (
    DEGRADED_ALGORITHM,
    ServiceConfig,
    ServiceResult,
    SimilarityService,
)

__all__ = [
    "DEGRADED_ALGORITHM",
    "AdmissionController",
    "CircuitBreaker",
    "GenerationLRUCache",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceHTTPServer",
    "ServiceResult",
    "SimilarityService",
    "call_with_retries",
    "prepared_cache_key",
    "result_cache_key",
]
