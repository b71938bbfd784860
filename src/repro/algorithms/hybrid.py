"""Hybrid — round-robin breadth with SF's depth cutoffs (Section VII).

Hybrid reads lists round-robin like iNRA but stops descending a list as soon
as no unread element of it can matter any more: an element of length ``L``
popped from list ``i`` is useful only if

* some existing candidate with length >= ``L`` might still appear in list
  ``i`` (``L <= max_len(C)``), or
* a brand-new candidate of length ``L`` could still reach ``tau`` given the
  lists that remain open (``L <= Λ``, the dynamic analogue of SF's λ over
  the currently open lists).

Both cutoffs shrink as the search progresses — candidates get pruned and
lists complete.  Λ is the sound round-robin analogue of SF's static
per-list λ_i, not λ_i itself, so Lemma 4 holds in this form: Hybrid never
reads more elements than iNRA, and matches SF up to round-robin
quantization only on SF-friendly (skewed) instances — elsewhere it can read
more than SF.

The price is bookkeeping: ``max_len(C)`` must be current at every list stop
decision.  Section VII's special organization makes that cheap and is
implemented in
:class:`~repro.algorithms.candidates.PartitionedCandidateSet`: one
length-sorted candidate list per inverted list (append-only by construction)
plus a hash table; ``max_len(C)`` is a running value, recomputed over the
partition tails (O(#lists)) only when a removal takes it, and provably-dead
candidates are dropped from the partition backs, where the length-monotone
best-case bound is weakest.

Hybrid is :class:`~repro.algorithms.inra.INRA` with full candidate scans
and three hooks overridden: the candidate set, the depth cutoff and the
per-round back pruning.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..storage.invlist import InvertedIndex
from .base import QueryLists, register_algorithm
from .candidates import PartitionedCandidateSet
from .inra import INRA
from .kernel import RoundRobin


@register_algorithm
class Hybrid(INRA):
    """iNRA's breadth + SF's per-list depth cutoffs + partitioned
    candidates (Section VII; never more element reads than iNRA, Lemma 4)."""

    name = "hybrid"

    def __init__(self, index: InvertedIndex, **kwargs) -> None:
        # Full scans: Hybrid deliberately pays extra bookkeeping for
        # maximal pruning (the paper's characterization in Section VIII-D).
        super().__init__(index, lazy_scans=False, **kwargs)

    def _candidate_set(self, num_lists: int) -> PartitionedCandidateSet:
        return PartitionedCandidateSet(num_lists)

    def _depth_cutoff(
        self, rr: RoundRobin, candidates: PartitionedCandidateSet, tau: float
    ) -> Optional[Callable[[float], bool]]:
        scale = tau * rr.lists.query.length
        if scale <= 0.0:
            return None

        def past_depth(head: float) -> bool:
            # SF's stop condition, head > min(hi, max(max_len(C), Λ)),
            # applied per list in round-robin; RoundRobin tests hi.  Λ is
            # the max length of a still-admissible new candidate, assuming
            # it appears in every open list.  max_len(C) is asked only
            # past Λ.
            return (
                head > rr.open_idf_squared / scale
                and head > candidates.max_length()
            )

        return past_depth

    def _prune_round(
        self, lists: QueryLists, tau: float, candidates: PartitionedCandidateSet
    ) -> None:
        # Cheap pruning from the partition backs using the length-monotone
        # best-case bound (valid whatever the candidate has or hasn't been
        # seen in).
        scale = tau * lists.query.length
        if scale > 0.0:
            dead_above = sum(lists.idf_squared) / scale
            candidates.prune_back(lambda c: c.length > dead_above)
