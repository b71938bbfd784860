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
partition tails (O(#lists)) only when a removal takes it.

No per-round pruning from the partition backs is needed: the length-monotone
bound it would apply, ``len(s) > Σ_i idf(q_i)² / (tau·len(q))``, is already
applied when a set is admitted, since the kernel's ``admission_bound`` sums
a subset of the same squared idfs, so no admitted candidate can fail it
later.

Hybrid is :class:`~repro.algorithms.inra.INRA` with full candidate scans
and two hooks overridden: the candidate set and the depth limit
``max(Λ, max_len(C))``.  The limit is written once: ``RoundRobin.round``
asks it at each head, and ``RoundRobin.skip_idle`` stops the idle rounds
it pops in one step before the first head past it.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..storage.invlist import InvertedIndex
from .base import register_algorithm
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

    def _depth_limit(
        self, rr: RoundRobin, candidates: PartitionedCandidateSet, tau: float
    ) -> Optional[Callable[[], float]]:
        scale = tau * rr.lists.query.length
        if scale <= 0.0:
            return None

        def depth_limit() -> float:
            # SF's stop condition, head > min(hi, max(Λ, max_len(C))),
            # applied per list in round-robin; RoundRobin tests hi.  Λ is
            # the max length of a still-admissible new candidate, assuming
            # it appears in every open list.
            admissible = rr.open_idf_squared / scale
            longest = candidates.max_length()
            return admissible if admissible > longest else longest

        return depth_limit
