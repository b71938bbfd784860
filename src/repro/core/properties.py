"""Semantic properties of the IDF measure (Section IV of the paper).

Three properties drive all pruning in the improved algorithms:

* **Order Preservation (Property 1)** — inverted lists are sorted by
  ``(len(s), id)``; since a set's length is constant across lists, two sets
  appear in the same relative order in every list they share.  Consequently,
  once a list's frontier has passed ``(len(s), id(s))`` without ``s``
  appearing, ``s`` is provably absent from that list.

* **Magnitude Boundedness (Property 2)** — after the first encounter of
  ``s`` (which reveals ``len(s)``), a tight best-case score
  ``Σ_i idf(q^i)² / (len(s)·len(q))`` over the not-yet-ruled-out lists is
  directly computable.

* **Length Boundedness (Theorem 1)** — ``I(q,s) ≥ τ`` implies
  ``τ·len(q) ≤ len(s) ≤ len(q)/τ``, and the bounds are tight.

This module is the one home of those bounds: the algorithms call
:func:`best_case_score` (admission) and :func:`magnitude_upper_bound`
(pruning) instead of re-deriving them.  :func:`lambda_cutoffs` gives SF's
per-list cutoffs ``λ_i`` (Equation 2) in idf order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import InvalidThresholdError

__all__ = [
    "SCORE_EPSILON",
    "validate_threshold",
    "effective_threshold",
    "length_bounds",
    "within_length_bounds",
    "lambda_cutoffs",
    "best_case_score",
    "magnitude_upper_bound",
    "tf_boosted_length_bounds",
]

SCORE_EPSILON = 1e-9
"""Absolute tolerance applied to every threshold comparison.

Similarity scores are assembled from floating-point contribution sums whose
association order differs between the reference scorer and the incremental
algorithms; without a tolerance, ``tau = 1.0`` exact-match queries would
accept or reject borderline sets depending on summation order.  Every engine
(brute force, all list algorithms, SQL) compares against the same
``tau - SCORE_EPSILON``, so results stay mutually consistent.
"""


def validate_threshold(tau: float) -> float:
    """Check ``0 < tau <= 1`` and return it; raise otherwise."""
    if not (0.0 < tau <= 1.0):
        raise InvalidThresholdError(tau)
    return float(tau)


def effective_threshold(tau: float) -> float:
    """The internally used threshold: ``tau`` minus the float tolerance."""
    validate_threshold(tau)
    return max(tau - SCORE_EPSILON, SCORE_EPSILON)


def length_bounds(query_length: float, tau: float) -> Tuple[float, float]:
    """Theorem 1: the admissible normalized-length window for answers.

    Returns ``(tau * len(q), len(q) / tau)``.  Any set whose normalized
    length falls strictly outside this closed interval cannot reach
    similarity ``tau`` with the query.
    """
    tau = validate_threshold(tau)
    return tau * query_length, query_length / tau


def within_length_bounds(
    set_length: float, query_length: float, tau: float
) -> bool:
    """Whether ``set_length`` lies inside the Theorem 1 window (inclusive)."""
    lo, hi = length_bounds(query_length, tau)
    return lo <= set_length <= hi


def lambda_cutoffs(
    idf_squared_desc: Sequence[float], query_length: float, tau: float
) -> List[float]:
    """SF's per-list length cutoffs ``λ_i`` (Equation 2).

    ``idf_squared_desc`` must be the query tokens' squared idfs sorted in
    *decreasing* order (the order SF processes lists in).  ``λ_i`` is the
    largest normalized length a set first discovered in list ``i`` can have
    and still reach ``tau``, assuming it also appears in every later list:

        λ_i = Σ_{j ≥ i} idf(q^j)² / (τ · len(q))

    The returned list is non-increasing (λ_1 ≥ λ_2 ≥ ... ≥ λ_n).  A zero
    query length yields all-zero cutoffs.
    """
    tau = validate_threshold(tau)
    if query_length <= 0.0:
        return [0.0] * len(idf_squared_desc)
    denom = tau * query_length
    cutoffs: List[float] = []
    suffix = 0.0
    for v in reversed(idf_squared_desc):
        suffix += v
        cutoffs.append(suffix / denom)
    cutoffs.reverse()
    return cutoffs


def best_case_score(
    set_length: float, query_length: float, open_idf_squared: float
) -> float:
    """Property 2: best-case score of a set of known length.

    ``open_idf_squared`` is the summed squared idf of every query token
    whose list might contain the set.  Only tokens of ``s`` can score, and
    their squared idfs sum to at most ``len(s)²`` (Theorem 1 case 2), so
    the sum is capped there before dividing by ``len(s)·len(q)``.
    """
    denom = set_length * query_length
    if denom <= 0.0:
        return 0.0
    return min(open_idf_squared, set_length * set_length) / denom


def magnitude_upper_bound(
    set_length: float,
    query_length: float,
    open_idf_squared: float,
    known_score: float = 0.0,
) -> float:
    """Property 2 upper bound of a partly scored set, capped by Theorem 1.

    ``known_score`` is the exact sum over the lists where the set already
    appeared; ``open_idf_squared`` sums the squared idfs of the lists that
    might still hold it.  The bound is capped at ``len(s)/len(q)``
    (Theorem 1 case 2) but never below ``known_score``: the cap and the
    known score can be the same quantity summed in different float orders.
    """
    denom = set_length * query_length
    if denom <= 0.0:
        return known_score
    upper = known_score + open_idf_squared / denom
    return max(min(upper, set_length / query_length), known_score)


def tf_boosted_length_bounds(
    query_length: float, tau: float, max_tf: float
) -> Tuple[float, float]:
    """Looser Theorem 1 window for TF/IDF cosine (Section IV's boosted
    bounds), sound when ``max_tf`` is at least the largest tf of both the
    query and every stored set.

    With ``L`` the idf length and ``N`` the tf-weighted norm of a set
    (``L <= N``) and ``M_q``, ``M_s`` the largest tfs, Cauchy–Schwarz over
    the shared tokens gives ``Σ tf_s·idf² <= min(L_q, L_s)·N_s``, so
    ``dot <= M_q·min(L_q, L_s)·N_s`` and ``cos <= M_q·L_s/L_q``; swapping
    the roles, ``cos <= M_s·L_q/L_s``.  So ``cos >= tau`` forces
    ``tau·L_q/M_q <= L_s <= M_s·L_q/tau``, and one factor covers both.
    """
    if max_tf < 1.0:
        raise ValueError(f"max_tf must be >= 1, got {max_tf}")
    lo, hi = length_bounds(query_length, tau)
    return lo / max_tf, hi * max_tf
