"""Multi-field record linkage: weighted fusion of per-field similarities.

Real data cleaning rarely matches one string: a customer record has a name,
an address, a city — each with its own error characteristics and its own
discriminative power.  :class:`FieldedMatcher` builds one q-gram searcher
per field and scores record pairs as a weighted combination of the
per-field IDF similarities:

    S(r, r') = Σ_f weight_f · I_f(r.f, r'.f)   with   Σ_f weight_f = 1.

Candidate generation stays index-backed and provably complete through two
facts: (a) a weighted average never exceeds its maximum, so any record at
combined similarity ``tau`` has *some* field at ``I_f >= tau``; and (b) if
every other field scored a perfect 1.0, field ``f`` still needs
``b_f = (tau - (1 - weight_f)) / weight_f``.  Each field is gathered from
its index at ``b_f`` when that bound is positive (it is always <= tau, so
this is the more inclusive choice) and at ``tau`` otherwise; the union is
verified exactly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..core.collection import SetCollection
from ..core.errors import ConfigurationError
from ..core.properties import effective_threshold, validate_threshold
from ..core.search import SetSimilaritySearcher
from ..core.similarity import idf_similarity
from ..core.tokenize import QGramTokenizer, Tokenizer


class FieldedMatch:
    """One linked record: id, combined score, per-field breakdown."""

    __slots__ = ("record_id", "score", "per_field")

    def __init__(
        self, record_id: int, score: float, per_field: Dict[str, float]
    ) -> None:
        self.record_id = record_id
        self.score = score
        self.per_field = per_field

    def __repr__(self) -> str:
        return f"FieldedMatch(id={self.record_id}, score={self.score:.4f})"


class FieldedMatcher:
    """Index-backed weighted multi-field matching.

    Parameters
    ----------
    records:
        Sequence of field-name -> string mappings (missing fields allowed).
    weights:
        Field name -> weight; normalized to sum to 1.  Fields absent from
        ``weights`` are ignored entirely.
    tokenizer:
        Shared tokenizer for every field (padded 3-grams by default).
    """

    def __init__(
        self,
        records: Sequence[Mapping[str, str]],
        weights: Mapping[str, float],
        tokenizer: Optional[Tokenizer] = None,
    ) -> None:
        if not weights:
            raise ConfigurationError("weights must name at least one field")
        total = float(sum(weights.values()))
        if total <= 0:
            raise ConfigurationError("weights must sum to a positive value")
        self.weights: Dict[str, float] = {
            field: w / total for field, w in weights.items()
        }
        self.tokenizer = tokenizer or QGramTokenizer(q=3)
        self.records = list(records)

        self._searchers: Dict[str, SetSimilaritySearcher] = {}
        for field in self.weights:
            collection = SetCollection()
            for record in self.records:
                text = record.get(field, "") or ""
                collection.add(
                    self.tokenizer.tokens(text), payload=text
                )
            collection.freeze()
            self._searchers[field] = SetSimilaritySearcher(collection)

    # ------------------------------------------------------------------
    def field_similarity(
        self, field: str, query_text: str, record_id: int
    ) -> float:
        """Exact per-field IDF similarity of a query against one record."""
        searcher = self._searchers[field]
        tokens = self.tokenizer.tokens(query_text)
        if not tokens:
            return 0.0
        collection = searcher.collection
        return idf_similarity(
            tokens,
            collection[record_id].tokens,
            collection.stats,
            s_length=collection.length(record_id),
        )

    def _per_field_threshold(self, field: str, tau: float) -> float:
        """The field's gather threshold: ``b_f`` (others perfect) when that
        bound is positive, else ``tau`` (the average-<=-max fact).  Both
        are complete; ``b_f <= tau`` always, so it is the inclusive pick."""
        weight = self.weights[field]
        bound = (tau - (1.0 - weight)) / weight
        if bound <= 0.0:
            return tau
        return min(bound, 1.0)

    def match(
        self,
        query: Mapping[str, str],
        threshold: float,
        max_candidates: Optional[int] = None,
    ) -> List[FieldedMatch]:
        """Records whose weighted combined similarity reaches ``threshold``.

        Candidates come from every weighted field's index at that field's
        gather threshold (see :meth:`_per_field_threshold`); the union is
        verified exactly against the combined score.
        """
        validate_threshold(threshold)
        cutoff = effective_threshold(threshold)
        candidates: set = set()
        for field in self.weights:
            text = query.get(field, "") or ""
            tokens = self.tokenizer.tokens(text)
            if not tokens:
                continue
            per_field = self._per_field_threshold(field, threshold)
            result = self._searchers[field].search(tokens, per_field)
            candidates.update(result.ids())

        matches: List[FieldedMatch] = []
        for record_id in candidates:
            per_field: Dict[str, float] = {}
            combined = 0.0
            for field, weight in self.weights.items():
                text = query.get(field, "") or ""
                sim = (
                    self.field_similarity(field, text, record_id)
                    if text
                    else 0.0
                )
                per_field[field] = sim
                combined += weight * sim
            if combined >= cutoff:
                matches.append(FieldedMatch(record_id, combined, per_field))
        matches.sort(key=lambda m: (-m.score, m.record_id))
        if max_candidates is not None:
            matches = matches[:max_candidates]
        return matches

    def brute_force(
        self, query: Mapping[str, str], threshold: float
    ) -> List[FieldedMatch]:
        """Exhaustive reference scoring (tests, tiny datasets)."""
        cutoff = effective_threshold(threshold)
        out: List[FieldedMatch] = []
        for record_id in range(len(self.records)):
            per_field: Dict[str, float] = {}
            combined = 0.0
            for field, weight in self.weights.items():
                text = query.get(field, "") or ""
                sim = (
                    self.field_similarity(field, text, record_id)
                    if text
                    else 0.0
                )
                per_field[field] = sim
                combined += weight * sim
            if combined >= cutoff:
                out.append(FieldedMatch(record_id, combined, per_field))
        out.sort(key=lambda m: (-m.score, m.record_id))
        return out
