"""Prefix filter selection — the related-work baseline of Section IX.

Chaudhuri, Ganti & Kaushik's prefix filter [2] was designed for joins; the
paper notes it "can be modified to work for all weighted similarity
measures for selection queries" (the degenerate join with a single probe
set).  This module implements that modification for the IDF measure, as a
candidate-generation + verification baseline:

**Principle.**  Fix a global token order (here: decreasing idf², ties by
token).  For a set ``s``, let its *prefix* ``P_beta(s)`` be the shortest
head of ``s``'s ordered tokens whose removal drops more than a ``1 - beta``
fraction of impossible weight — concretely, the shortest head such that the
remaining suffix satisfies ``Σ_{t in suffix} idf(t)² < beta · len(s)²``.
If ``I(q, s) >= tau`` then

    Σ_{t ∈ q∩s} idf(t)²  >=  tau · len(q) · len(s),

so ``q`` and ``s`` must share at least one token inside each other's
prefixes computed at ``beta = tau·len(q)/len(s) ...`` — in practice the
index is built once for a *minimum supported threshold* ``tau_min`` using
the worst case of Theorem 1 (``len(q) >= tau_min · len(s)``), giving
``beta = tau_min²``.  Queries with ``tau >= tau_min`` are answered exactly;
lower thresholds raise :class:`~repro.core.errors.ConfigurationError`.

The index stores postings only for prefix tokens, so it is much smaller
than the full inverted index; the price is a verification pass over every
candidate.  The benchmark compares its candidate counts against SF's
element accesses — reproducing the paper's judgement that it is "subsumed
by the SQL based approach" (and a fortiori by the specialized algorithms).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Set

from ..core.collection import SetCollection
from ..core.errors import ConfigurationError, EmptyQueryError
from ..core.properties import effective_threshold, validate_threshold
from ..core.similarity import idf_similarity
from .base import AlgorithmResult, SearchResult
from ..storage.pages import IOStats


def _ordered_tokens(tokens, stats) -> List[str]:
    """Global prefix order: decreasing idf², ties by token string."""
    return sorted(tokens, key=lambda t: (-stats.idf_squared(t), t))


def _prefix_length(
    ordered: Sequence[str], stats, beta: float, set_norm_sq: float
) -> int:
    """Shortest head such that the suffix weight is below beta·len(s)²."""
    if set_norm_sq <= 0.0:
        return 0
    suffix = set_norm_sq
    for i, token in enumerate(ordered):
        if suffix < beta * set_norm_sq:
            return i
        suffix -= stats.idf_squared(token)
    return len(ordered)


class PrefixFilterSearcher:
    """Prefix-filter selection for the IDF measure (exact for tau >= tau_min).

    Parameters
    ----------
    collection:
        The database of sets.
    tau_min:
        The smallest threshold the index must support.  Smaller values keep
        longer prefixes (bigger index, weaker filter); ``tau_min = 1.0``
        indexes only each set's single heaviest token.
    """

    def __init__(self, collection: SetCollection, tau_min: float = 0.5):
        validate_threshold(tau_min)
        if not collection.frozen:
            raise ConfigurationError("collection must be frozen")
        self.collection = collection
        self.tau_min = tau_min
        stats = collection.stats
        # Worst case of Theorem 1: len(q) >= tau_min·len(s), so a shared
        # prefix token is guaranteed whenever the suffix weight stays below
        # tau_min² · len(s)².
        beta = tau_min * tau_min
        self._index: Dict[str, List[int]] = {}
        self._prefix_sizes: List[int] = []
        lengths = collection.lengths()
        for rec in collection:
            ordered = _ordered_tokens(rec.tokens, stats)
            norm_sq = lengths[rec.set_id] ** 2
            plen = _prefix_length(ordered, stats, beta, norm_sq)
            # Guarantee a non-empty prefix for non-empty sets.
            plen = max(plen, 1) if ordered else 0
            self._prefix_sizes.append(plen)
            for token in ordered[:plen]:
                self._index.setdefault(token, []).append(rec.set_id)

    # ------------------------------------------------------------------
    def index_postings(self) -> int:
        """Total prefix postings (compare with the full index's count)."""
        return sum(len(ids) for ids in self._index.values())

    def search(self, tokens: Sequence[str], tau: float) -> AlgorithmResult:
        """Exact selection for ``tau >= tau_min``."""
        validate_threshold(tau)
        if tau < self.tau_min:
            raise ConfigurationError(
                f"index built for tau >= {self.tau_min}, got {tau}"
            )
        stats = self.collection.stats
        distinct = frozenset(tokens)
        if not distinct:
            raise EmptyQueryError("query produced no tokens")
        io = IOStats()
        started = time.perf_counter()

        ordered = _ordered_tokens(distinct, stats)
        q_norm_sq = sum(stats.idf_squared(t) for t in ordered)
        # The query's own prefix at beta = tau² (its exact threshold).
        q_plen = max(_prefix_length(ordered, stats, tau * tau, q_norm_sq), 1)

        candidates: Set[int] = set()
        for token in ordered[:q_plen]:
            for set_id in self._index.get(token, ()):
                io.charge_element()
                candidates.add(set_id)

        cutoff = effective_threshold(tau)
        q_length = q_norm_sq ** 0.5
        lengths = self.collection.lengths()
        results: List[SearchResult] = []
        for set_id in candidates:
            rec = self.collection[set_id]
            score = idf_similarity(
                distinct, rec.tokens, stats,
                q_length=q_length, s_length=lengths[set_id],
            )
            if score >= cutoff:
                results.append(SearchResult(set_id, score))
        elapsed = time.perf_counter() - started
        return AlgorithmResult(
            algorithm="prefix-filter",
            results=results,
            stats=io,
            elements_total=self.index_postings(),
            wall_seconds=elapsed,
            peak_candidates=len(candidates),
        )
