"""Exact pairwise similarity measures: IDF, TF/IDF, BM25 and BM25'.

These are the reference implementations used (a) by tests as ground truth for
every index-based algorithm, and (b) by the Table I precision experiment that
compares the four measures on graded-error datasets.

The paper's primary measure is **IDF** (Equation 1):

    I(q, s) = Σ_{t ∈ q∩s} idf(t)² / (len(s)·len(q))

with ``len(·)`` the normalized length from :mod:`repro.core.weights`.  The
three properties in Section IV (order preservation, magnitude boundedness,
length boundedness) hold for IDF exactly; TF/IDF and BM25 obey looser
variants obtained by boosting with per-token maximum tf (see
:func:`repro.core.properties.tf_boosted_length_bounds`).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional

from .errors import ConfigurationError
from .weights import IdfStatistics, normalized_length, tf_counts

__all__ = [
    "idf_similarity",
    "tfidf_cosine",
    "bm25_score",
    "SimilarityMeasure",
    "IdfMeasure",
    "TfIdfMeasure",
    "Bm25Measure",
    "Bm25PrimeMeasure",
    "measure_from_name",
]


def idf_similarity(
    q_tokens: Iterable[str],
    s_tokens: Iterable[str],
    stats: IdfStatistics,
    q_length: Optional[float] = None,
    s_length: Optional[float] = None,
) -> float:
    """IDF similarity of two token collections (Equation 1).

    Lengths may be supplied when already known (e.g. cached per collection)
    to avoid recomputation.  Two identical sets always score 1.0; an empty
    operand scores 0.0.
    """
    q = frozenset(q_tokens)
    s = frozenset(s_tokens)
    if q_length is None:
        q_length = normalized_length(q, stats)
    if s_length is None:
        s_length = normalized_length(s, stats)
    denom = q_length * s_length
    if denom <= 0.0:
        return 0.0
    # Plain float adds in sorted-token order, as in normalized_length: the
    # score is then independent of set iteration order (the hash seed).
    num = 0.0
    for t in sorted(q & s):
        num += stats.idf_squared(t)
    return num / denom


def _tfidf_weight(tf: int, idf: float) -> float:
    return tf * idf


def tfidf_cosine(
    q_counts: Mapping[str, int],
    s_counts: Mapping[str, int],
    stats: IdfStatistics,
) -> float:
    """Cosine similarity with ``tf·idf`` token weights (classic TF/IDF).

    The normalization uses the full tf-weighted vector norms, so the score
    lies in [0, 1] and equals 1.0 only for proportional vectors.
    """
    def norm(counts: Mapping[str, int]) -> float:
        return math.sqrt(
            sum(_tfidf_weight(tf, stats.idf(t)) ** 2 for t, tf in counts.items())
        )

    nq, ns = norm(q_counts), norm(s_counts)
    if nq <= 0.0 or ns <= 0.0:
        return 0.0
    dot = 0.0
    smaller, larger = (
        (q_counts, s_counts) if len(q_counts) <= len(s_counts) else (s_counts, q_counts)
    )
    for t, tf_a in smaller.items():
        tf_b = larger.get(t)
        if tf_b:
            dot += _tfidf_weight(tf_a, stats.idf(t)) * _tfidf_weight(
                tf_b, stats.idf(t)
            )
    return dot / (nq * ns)


def bm25_score(
    q_counts: Mapping[str, int],
    s_counts: Mapping[str, int],
    stats: IdfStatistics,
    k1: float = 1.2,
    b: float = 0.75,
    drop_tf: bool = False,
    normalize: bool = True,
) -> float:
    """BM25 score of set ``s`` for query ``q`` (Robertson/Sparck-Jones form).

    ``drop_tf=True`` gives the paper's **BM25'** variant: every term
    frequency is clamped to 1, reducing multisets to sets exactly as the IDF
    measure does for TF/IDF.

    With ``normalize=True`` the raw score is divided by the query's
    self-score, restricting the output to [0, 1] with exact matches scoring
    1.0 — the length-normalization idea Section II argues for.  The raw,
    unbounded BM25 is returned with ``normalize=False``.
    """
    if k1 < 0 or not (0.0 <= b <= 1.0):
        raise ConfigurationError("BM25 requires k1 >= 0 and 0 <= b <= 1")
    avg = stats.avg_set_size or 1.0

    def doc_len(counts: Mapping[str, int]) -> float:
        if drop_tf:
            return float(len(counts))
        return float(sum(counts.values()))

    def raw(
        query: Mapping[str, int], doc: Mapping[str, int]
    ) -> float:
        dl = doc_len(doc)
        denom_norm = k1 * ((1.0 - b) + b * dl / avg)
        total = 0.0
        for t in query:
            tf = doc.get(t, 0)
            if tf == 0:
                continue
            if drop_tf:
                tf = 1
            total += stats.idf(t) * (tf * (k1 + 1.0)) / (denom_norm + tf)
        return total

    score = raw(q_counts, s_counts)
    if not normalize:
        return score
    self_q = raw(q_counts, q_counts)
    self_s = raw(s_counts, s_counts)
    denom = math.sqrt(self_q * self_s)
    return score / denom if denom > 0.0 else 0.0


class SimilarityMeasure:
    """Uniform interface over the four measures for the precision harness.

    Subclasses implement :meth:`score` on multiset count mappings; the
    set-semantics measures simply ignore the counts.
    """

    name = "abstract"

    def __init__(self, stats: IdfStatistics) -> None:
        self.stats = stats

    def score(
        self, q_counts: Mapping[str, int], s_counts: Mapping[str, int]
    ) -> float:
        raise NotImplementedError

    def score_strings(self, q_tokens, s_tokens) -> float:
        """Convenience: score raw token sequences."""
        return self.score(tf_counts(list(q_tokens)), tf_counts(list(s_tokens)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class IdfMeasure(SimilarityMeasure):
    """The paper's IDF measure (Equation 1)."""

    name = "idf"

    def score(self, q_counts, s_counts) -> float:
        return idf_similarity(q_counts.keys(), s_counts.keys(), self.stats)


class TfIdfMeasure(SimilarityMeasure):
    """Classic length-normalized TF/IDF cosine."""

    name = "tfidf"

    def score(self, q_counts, s_counts) -> float:
        return tfidf_cosine(q_counts, s_counts, self.stats)


class Bm25Measure(SimilarityMeasure):
    """Normalized BM25 with tunable ``k1`` and ``b``."""

    name = "bm25"

    def __init__(self, stats: IdfStatistics, k1: float = 1.2, b: float = 0.75):
        super().__init__(stats)
        self.k1 = k1
        self.b = b

    def score(self, q_counts, s_counts) -> float:
        return bm25_score(q_counts, s_counts, self.stats, k1=self.k1, b=self.b)


class Bm25PrimeMeasure(Bm25Measure):
    """BM25' — BM25 with the tf component dropped (tf clamped to 1)."""

    name = "bm25p"

    def score(self, q_counts, s_counts) -> float:
        return bm25_score(
            q_counts, s_counts, self.stats, k1=self.k1, b=self.b, drop_tf=True
        )


_MEASURES = {
    "idf": IdfMeasure,
    "tfidf": TfIdfMeasure,
    "bm25": Bm25Measure,
    "bm25p": Bm25PrimeMeasure,
}


def measure_from_name(name: str, stats: IdfStatistics, **kwargs) -> SimilarityMeasure:
    """Instantiate a measure by name: ``idf``, ``tfidf``, ``bm25``, ``bm25p``."""
    try:
        cls = _MEASURES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown measure {name!r}; choose from {sorted(_MEASURES)}"
        ) from None
    return cls(stats, **kwargs)
