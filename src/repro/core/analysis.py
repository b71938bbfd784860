"""Query cost analysis and automatic algorithm selection.

The §VIII summary crowns SF "a clear winner", but the evaluation also shows
where the others shine: sort-by-id when pruning cannot help (very low
thresholds, whole lists in-window), TA-style when candidates are vanishingly
rare and random access is cheap.  :func:`estimate_cost` predicts, from index
statistics alone (no list reads), how much of each list a windowed algorithm
would touch, and :func:`choose_algorithm` turns that into a rule-of-thumb
plan choice — exposed as ``algorithm="auto"`` on the facade.

Estimation uses the per-list skip structures (or a direct bisection over
the posting order) to count in-window postings exactly, without charging
any simulated I/O: this mirrors how a real optimizer consults index
statistics rather than data pages.
"""

from __future__ import annotations

import bisect
from typing import Dict, List

from ..core.properties import length_bounds
from ..core.query import PreparedQuery
from ..storage.invlist import InvertedIndex


class CostEstimate:
    """Predicted work for one query at one threshold."""

    __slots__ = (
        "num_lists",
        "total_postings",
        "window_postings",
        "per_list_window",
    )

    def __init__(
        self,
        num_lists: int,
        total_postings: int,
        window_postings: int,
        per_list_window: List[int],
    ) -> None:
        self.num_lists = num_lists
        self.total_postings = total_postings
        self.window_postings = window_postings
        self.per_list_window = per_list_window

    @property
    def window_fraction(self) -> float:
        """Fraction of the query's postings inside the Theorem 1 window."""
        if self.total_postings == 0:
            return 0.0
        return self.window_postings / self.total_postings

    def __repr__(self) -> str:
        return (
            f"CostEstimate(lists={self.num_lists}, "
            f"window={self.window_postings}/{self.total_postings})"
        )


def window_count(index: InvertedIndex, token: str, lo: float, hi: float) -> int:
    """Number of postings of ``token`` with length in ``[lo, hi]``.

    Computed by bisection over the posting order (an optimizer consulting
    index statistics) — no simulated I/O is charged.
    """
    records = index.postings(token)
    start = bisect.bisect_left(records, (lo, -1))
    end = bisect.bisect_right(records, (hi, 1 << 62))
    return max(0, end - start)


def estimate_cost(
    index: InvertedIndex, query: PreparedQuery, tau: float
) -> CostEstimate:
    """Predict in-window postings per list for this query/threshold."""
    lo, hi = length_bounds(query.length, tau)
    per_list: List[int] = []
    total = 0
    for token in query.tokens:
        n = index.list_length(token)
        if n == 0:
            continue
        total += n
        per_list.append(window_count(index, token, lo, hi))
    return CostEstimate(
        num_lists=len(per_list),
        total_postings=total,
        window_postings=sum(per_list),
        per_list_window=per_list,
    )


def choose_algorithm(
    index: InvertedIndex, query: PreparedQuery, tau: float
) -> str:
    """Pick a selection algorithm from the cost estimate.

    Heuristics, in order (mirroring the paper's findings):

    1. window covers (nearly) everything → pruning cannot pay for its
       bookkeeping: use the plain merge (``sort-by-id``);
    2. extremely selective window (a handful of postings in total) →
       ``ita``: completing the few survivors by random access beats any
       sequential plan;
    3. otherwise → ``sf``, the paper's overall winner.

    The id-ordered lists and hash indexes the first two need are built on
    first use, so every plan is always available.
    """
    estimate = estimate_cost(index, query, tau)
    if estimate.total_postings == 0:
        return "sf"  # nothing to read; any algorithm returns empty
    if estimate.window_fraction > 0.95:
        return "sort-by-id"
    if estimate.window_postings <= 4 * max(estimate.num_lists, 1):
        return "ita"
    return "sf"


def explain_choice(
    index: InvertedIndex, query: PreparedQuery, tau: float
) -> Dict[str, object]:
    """The estimate plus the decision, for logging/debugging."""
    estimate = estimate_cost(index, query, tau)
    return {
        "num_lists": estimate.num_lists,
        "total_postings": estimate.total_postings,
        "window_postings": estimate.window_postings,
        "window_fraction": round(estimate.window_fraction, 4),
        "algorithm": choose_algorithm(index, query, tau),
    }


def explain_query(
    index: InvertedIndex, query: PreparedQuery, tau: float
) -> str:
    """A human-readable pre-execution plan, EXPLAIN-style.

    Shows the query's normalized length, the Theorem 1 window, SF's λ
    cutoffs, per-list sizes with in-window posting counts, and the
    algorithm the optimizer would pick — everything derivable from index
    statistics without reading data pages.
    """
    lo, hi = length_bounds(query.length, tau)
    cutoffs = query.cutoffs(tau)
    lines = [
        f"query: {len(query.tokens)} tokens, len(q) = {query.length:.4f}",
        f"threshold: tau = {tau}",
        f"length window (Theorem 1): [{lo:.4f}, {hi:.4f}]",
        "lists (decreasing idf):",
    ]
    for i, token in enumerate(query.tokens):
        n = index.list_length(token)
        if n == 0:
            lines.append(
                f"  {i + 1}. {token!r}: no postings (token unseen)"
            )
            continue
        in_window = window_count(index, token, lo, hi)
        lines.append(
            f"  {i + 1}. {token!r}: idf² = {query.idf_squared[i]:.3f}, "
            f"postings = {n}, in-window = {in_window}, "
            f"λ = {cutoffs[i]:.4f}"
        )
    info = explain_choice(index, query, tau)
    lines.append(
        f"window coverage: {info['window_postings']}/"
        f"{info['total_postings']} postings "
        f"({info['window_fraction']:.1%})"
    )
    lines.append(f"chosen algorithm (auto): {info['algorithm']}")
    return "\n".join(lines)
