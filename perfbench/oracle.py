"""Brute-force answer oracle, run outside every timed region.

Scores every set that shares a token with the query using the paper's
IDF measure (``repro.core.similarity.idf_similarity``), with no index,
cursor or pruning involved.  Sets sharing no token score 0 and can never
reach a threshold above 0, so skipping them changes no answer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.properties import SCORE_EPSILON
from repro.core.similarity import idf_similarity

#: Scores from different summation orders may differ in the last bits.
SCORE_TOLERANCE = 1e-9


class BruteForce:
    """Token sets by id plus a token -> ids map for candidate lookup."""

    def __init__(self, token_sets: Iterable[Iterable[str]] = ()) -> None:
        self.sets: List[frozenset] = []
        self._ids_by_token: Dict[str, List[int]] = {}
        for tokens in token_sets:
            self.add(tokens)

    def add(self, tokens: Iterable[str]) -> None:
        set_id = len(self.sets)
        tokens = frozenset(tokens)
        self.sets.append(tokens)
        for token in tokens:
            self._ids_by_token.setdefault(token, []).append(set_id)

    def answers(
        self, tokens: Sequence[str], tau: float, stats, live: int = None
    ) -> Dict[int, float]:
        """``{set id: score}`` of every set among the first ``live``
        scoring at least ``tau`` under the statistics ``stats``."""
        live = len(self.sets) if live is None else live
        query = frozenset(tokens)
        candidates = {
            set_id
            for token in query
            for set_id in self._ids_by_token.get(token, ())
            if set_id < live
        }
        cutoff = tau - SCORE_EPSILON
        out = {}
        for set_id in candidates:
            score = idf_similarity(query, self.sets[set_id], stats)
            if score >= cutoff:
                out[set_id] = score
        return out


def matches(
    got: Iterable[Tuple[int, float]], expected: Dict[int, float], tau: float
) -> bool:
    """True when ``got`` holds exactly the expected ids with their scores.

    An id whose exact score sits within :data:`SCORE_TOLERANCE` of the
    cutoff may be in either answer: its side of the threshold depends on
    float summation order.
    """
    got = dict(got)
    for set_id in set(got) ^ set(expected):
        score = got.get(set_id, expected.get(set_id))
        if abs(score - (tau - SCORE_EPSILON)) > SCORE_TOLERANCE:
            return False
    return all(
        abs(score - expected[set_id]) <= SCORE_TOLERANCE
        for set_id, score in got.items()
        if set_id in expected
    )
