"""Query preparation: per-token weights, processing order and bounds.

A :class:`PreparedQuery` snapshots everything the list-merging algorithms
need about a query: the distinct tokens, their (squared) idfs, the query's
normalized length, the decreasing-idf processing order used by SF, and a
helper evaluating the Theorem 1 window for a given threshold (SF's ``λ_i``
cutoffs are :func:`repro.core.properties.lambda_cutoffs`).

Preparing a query is independent of any index, so the same prepared query
can be executed by every algorithm — which is exactly how the benchmark
harness uses it.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .errors import EmptyQueryError
from .properties import length_bounds
from .weights import IdfStatistics


class PreparedQuery:
    """An analyzed query set, ready for execution by any algorithm.

    Attributes
    ----------
    tokens:
        Distinct query tokens, in decreasing idf order (ties broken by the
        token string for determinism).  This is the order SF scans lists in;
        round-robin algorithms simply iterate the same sequence cyclically.
    idf_squared:
        ``idf(t)²`` for each token, aligned with :attr:`tokens`.
    length:
        Normalized query length ``len(q)``.
    stats:
        The :class:`IdfStatistics` the weights were taken from.
    """

    __slots__ = (
        "tokens", "idf_squared", "length", "stats", "_source", "_index_of",
    )

    def __init__(self, tokens: Sequence[str], stats: IdfStatistics) -> None:
        distinct = sorted(frozenset(tokens))
        if not distinct:
            raise EmptyQueryError("query produced no tokens")
        weighted = sorted(
            ((stats.idf_squared(t), t) for t in distinct),
            key=lambda pair: (-pair[0], pair[1]),
        )
        self.tokens: Tuple[str, ...] = tuple(t for _, t in weighted)
        self.idf_squared: Tuple[float, ...] = tuple(w for w, _ in weighted)
        # Computed via stats.length (sorted-token summation) so a query equal
        # to a stored set gets the bit-identical normalized length.
        self.length: float = stats.length(distinct)
        self.stats = stats
        self._source = tuple(tokens)
        self._index_of: Dict[str, int] = {
            t: i for i, t in enumerate(self.tokens)
        }

    def under(self, stats: IdfStatistics) -> "PreparedQuery":
        """This query weighted by ``stats``: itself when it already is,
        else re-prepared from the same tokens (an epoch rebuild replaces
        the statistics a query was prepared against)."""
        if stats is self.stats:
            return self
        return PreparedQuery(self._source, stats)

    # ------------------------------------------------------------------
    @property
    def num_lists(self) -> int:
        return len(self.tokens)

    @property
    def source_tokens(self) -> Tuple[str, ...]:
        """The raw token sequence the query was prepared from."""
        return self._source

    def token_index(self, token: str) -> int:
        return self._index_of[token]

    def __contains__(self, token: str) -> bool:
        return token in self._index_of

    def __len__(self) -> int:
        return len(self.tokens)

    # ------------------------------------------------------------------
    def bounds(self, tau: float) -> Tuple[float, float]:
        """The Theorem 1 admissible length window for threshold ``tau``."""
        return length_bounds(self.length, tau)

    def __repr__(self) -> str:
        return (
            f"PreparedQuery(n_tokens={len(self.tokens)}, "
            f"length={self.length:.3f})"
        )


def prepare(
    tokens: Sequence[str], stats: IdfStatistics
) -> PreparedQuery:
    """Functional alias for :class:`PreparedQuery` construction."""
    return PreparedQuery(tokens, stats)
