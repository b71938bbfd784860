"""Unweighted set similarity: cosine, Jaccard and Dice selection.

A pleasant consequence of the paper's formulation: with *uniform* token
weights (idf ≡ 1) the IDF measure degenerates to the classic set cosine

    C(q, s) = |q ∩ s| / sqrt(|q| · |s|),

and every Section IV property — order preservation, magnitude boundedness
and the Theorem 1 length window (now on sqrt-cardinalities) — holds
verbatim.  So the whole algorithm suite runs unweighted set similarity
selections unchanged; this module provides the uniform statistics, a
:class:`CosineSetSearcher`, and reductions for Jaccard and Dice:

* ``J(q,s) >= tau  =>  C(q,s) >= 2·tau/(1+tau)``
  (from ``|∩| >= tau(|q|+|s|)/(1+tau)`` and AM-GM), and
* ``D(q,s) >= tau  =>  C(q,s) >= tau``
  (``2|∩|/(|q|+|s|) <= |∩|/sqrt(|q||s|)``),

so a cosine selection at the reduced threshold is a complete candidate
filter, finished by exact verification.
"""

from __future__ import annotations

import math
import time
from typing import AbstractSet, Iterable, List, Sequence

from ..algorithms.base import AlgorithmResult, SearchResult
from .collection import SetCollection
from .errors import ConfigurationError
from .properties import effective_threshold, validate_threshold
from .search import SetSimilaritySearcher
from .weights import IdfStatistics


class UniformStatistics(IdfStatistics):
    """idf ≡ 1 for every token: turns IDF into plain set cosine."""

    def idf(self, token: str) -> float:  # noqa: D102 - trivially uniform
        return 1.0

    def idf_squared(self, token: str) -> float:
        return 1.0


class UnweightedSetCollection(SetCollection):
    """A SetCollection whose statistics are uniform (cosine semantics).

    Lengths become ``sqrt(|s|)`` and every index/algorithm built on top
    computes unweighted cosine similarity.
    """

    @property
    def stats(self) -> IdfStatistics:
        self._require_frozen()
        if self._stats is None:
            self._stats = UniformStatistics.from_sets(
                rec.tokens for rec in self
            )
        return self._stats


def jaccard_score(q: AbstractSet[str], s: AbstractSet[str]) -> float:
    union = len(q | s)
    return len(q & s) / union if union else 1.0


def dice_score(q: AbstractSet[str], s: AbstractSet[str]) -> float:
    denom = len(q) + len(s)
    return 2 * len(q & s) / denom if denom else 1.0


def cosine_score(q: AbstractSet[str], s: AbstractSet[str]) -> float:
    denom = math.sqrt(len(q) * len(s))
    return len(q & s) / denom if denom else 1.0


_VERIFIERS = {
    "cosine": cosine_score,
    "jaccard": jaccard_score,
    "dice": dice_score,
}


def reduced_cosine_threshold(measure: str, tau: float) -> float:
    """The cosine threshold implied by ``measure >= tau`` (complete filter)."""
    validate_threshold(tau)
    if measure == "cosine":
        return tau
    if measure == "jaccard":
        return 2.0 * tau / (1.0 + tau)
    if measure == "dice":
        return tau
    raise ConfigurationError(
        f"unknown unweighted measure {measure!r}; "
        f"choose from {sorted(_VERIFIERS)}"
    )


class CosineSetSearcher:
    """Unweighted set similarity selection over the paper's machinery.

    Builds a :class:`SetSimilaritySearcher` over a uniform-weight view of
    the sets; ``search`` answers cosine selections natively with any of the
    seven algorithms, and Jaccard/Dice selections by threshold reduction +
    exact verification.
    """

    def __init__(
        self,
        token_sets: Iterable[Iterable[str]],
        **searcher_options,
    ) -> None:
        coll = UnweightedSetCollection()
        for tokens in token_sets:
            coll.add(list(tokens))
        coll.freeze()
        self.collection = coll
        self.searcher = SetSimilaritySearcher(coll, **searcher_options)

    def search(
        self,
        tokens: Sequence[str],
        tau: float,
        measure: str = "cosine",
        algorithm: str = "sf",
    ) -> AlgorithmResult:
        """All sets with the chosen unweighted similarity >= tau (exact)."""
        cosine_tau = reduced_cosine_threshold(measure, tau)
        base = self.searcher.search(tokens, cosine_tau, algorithm=algorithm)
        if measure == "cosine":
            return base
        verifier = _VERIFIERS[measure]
        cutoff = effective_threshold(tau)
        q = frozenset(tokens)
        started = time.perf_counter()
        verified: List[SearchResult] = []
        for r in base.results:
            score = verifier(q, self.collection[r.set_id].tokens)
            if score >= cutoff:
                verified.append(SearchResult(r.set_id, score))
        elapsed = time.perf_counter() - started
        return AlgorithmResult(
            algorithm=f"{measure}-via-{base.algorithm}",
            results=verified,
            stats=base.stats,
            elements_total=base.elements_total,
            wall_seconds=base.wall_seconds + elapsed,
            peak_candidates=base.peak_candidates,
        )

    def brute_force(
        self, tokens: Sequence[str], tau: float, measure: str = "cosine"
    ) -> List[SearchResult]:
        """Exhaustive reference for tests and tiny collections."""
        verifier = _VERIFIERS.get(measure)
        if verifier is None:
            raise ConfigurationError(
                f"unknown unweighted measure {measure!r}"
            )
        cutoff = effective_threshold(tau)
        q = frozenset(tokens)
        out = [
            SearchResult(rec.set_id, verifier(q, rec.tokens))
            for rec in self.collection
        ]
        out = [r for r in out if r.score >= cutoff]
        out.sort(key=lambda r: (-r.score, r.set_id))
        return out
