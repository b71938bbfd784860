"""The bounded LRU result cache of the query service layer.

A selection is a pure function of ``(query tokens, tau, algorithm)``
*for a fixed corpus*, so answers can be replayed until the corpus
changes.  Preparing a query (idf² per token and ``len(q)``) is cheap
next to running it, so only results are cached.

The cache is generation-checked: every entry is stamped with the
backend *version token* (see :meth:`repro.core.collection.SetCollection.generation`
and :attr:`repro.core.updatable.UpdatableSearcher.version`) current when
it was stored, and a lookup under a different version is a miss.  A
version change therefore invalidates the whole cache lazily — no
eviction sweep, no subscription to index internals.

Thread safety: all mutating operations hold one lock (an
``OrderedDict`` move-to-end is not atomic under concurrent writers).
The lock is never held while computing a value, so concurrent misses
for the same key may duplicate work but never corrupt state.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Tuple

from ..core.errors import ConfigurationError
from ..obs import metrics as obs_metrics

_MISS = object()


class GenerationLRUCache:
    """A bounded LRU mapping whose entries expire on version change.

    ``version`` can be any hashable token; entries stored under one
    version are invisible (and lazily evicted) under any other.

    A cache built with a ``name`` additionally publishes every hit and
    miss to the global metrics registry as ``cache_hits_total`` /
    ``cache_misses_total`` labeled ``{cache=name}``; anonymous caches
    keep only their local counters.
    """

    def __init__(self, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[Hashable, Any]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _publish(self, hit: bool) -> None:
        if not self.name:
            return
        registry = obs_metrics.get_registry()
        if not registry.enabled:
            return
        family = "cache_hits_total" if hit else "cache_misses_total"
        help_text = (
            "Cache lookups served from the cache."
            if hit
            else "Cache lookups that fell through (including stale entries)."
        )
        registry.counter(family, help_text, ("cache",)).labels(
            cache=self.name
        ).inc()

    def get(self, key: Hashable, version: Hashable) -> Any:
        """The cached value, or ``None`` on miss/stale entry."""
        with self._lock:
            entry = self._entries.get(key, _MISS)
            if entry is _MISS:
                self.misses += 1
                hit = False
            else:
                stored_version, value = entry
                if stored_version != version:
                    # Stale: the backend mutated since this was stored.
                    del self._entries[key]
                    self.invalidations += 1
                    self.misses += 1
                    hit = False
                else:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    hit = True
        self._publish(hit)
        return value if hit else None

    def put(self, key: Hashable, version: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = (version, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }

    def __repr__(self) -> str:
        return (
            f"GenerationLRUCache(size={len(self._entries)}/"
            f"{self.capacity}, hits={self.hits}, misses={self.misses})"
        )


def result_cache_key(
    tokens: Tuple[str, ...], tau: float, algorithm: str
) -> Tuple[Hashable, ...]:
    """The canonical result-cache key.

    Token *order and multiplicity* do not affect a selection
    (:class:`~repro.core.query.PreparedQuery` distinct-sorts), so the key
    uses the distinct token set; ``tau`` participates exactly (two
    thresholds are different queries even when within SCORE_EPSILON of
    each other — cached replay must be bit-identical, never merely
    close).
    """
    return (frozenset(tokens), tau, algorithm)

