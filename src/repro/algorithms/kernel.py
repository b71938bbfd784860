"""The Section IV bounds kernel shared by the round-robin algorithms.

iNRA, Hybrid, iTA and top-k keep the same per-list state while they read
lists round-robin: ``complete[i]`` (list ``i`` can yield nothing more) and
``frontier_key[i]`` (the ``(len, id)`` key of the last posting popped from
list ``i``, ``None`` before the first).  Order Preservation (Property 1)
turns that state into "list ``i`` cannot contain set ``s``" — the list is
complete, or its frontier has passed ``(len(s), id(s))`` — and
:mod:`repro.core.properties` turns the lists that remain into bounds.
The pieces the algorithms share live here, once:

* :func:`admission_bound` — the Property 2 best case of a newly popped set;
* :func:`prune_scan` — one resolve/prune pass over the candidate set;
* :func:`frontier_threshold` — ``F``, the best score of a still-unseen set;
* :func:`check_frontier_monotone` — the Magnitude Boundedness contract at a
  list's frontier (called only under ``REPRO_CHECK_INVARIANTS=1``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..contracts import ContractViolation
from ..core.properties import best_case_score, magnitude_upper_bound
from .base import QueryLists
from .candidates import Candidate, HashCandidateSet, PartitionedCandidateSet

FrontierKeys = Sequence[Optional[Tuple[float, int]]]


def admission_bound(
    lists: QueryLists,
    from_list: int,
    length: float,
    set_id: int,
    complete: Sequence[bool],
    frontier_key: FrontierKeys,
    plausible: Optional[List[int]] = None,
) -> float:
    """Best case of a set first seen now in list ``from_list``.

    Sums the set's squared idf over every list that could still contain
    it: the discovering list, plus each list that is not complete and whose
    frontier has not passed ``(length, set_id)``.  Frontiers from earlier
    in the round only make the bound looser, never wrong.  When given,
    ``plausible`` receives the indexes of those other lists (iTA probes
    exactly them).
    """
    key = (length, set_id)
    idf_squared = lists.idf_squared
    total = idf_squared[from_list]
    for j, fk in enumerate(frontier_key):
        if j == from_list or complete[j]:
            continue
        if fk is not None and fk >= key:
            continue  # the frontier passed the set: absent from list j
        total += idf_squared[j]
        if plausible is not None:
            plausible.append(j)
    return best_case_score(length, lists.query.length, total)


def prune_scan(
    lists: QueryLists,
    tau: float,
    candidates: Union[HashCandidateSet, PartitionedCandidateSet],
    complete: Sequence[bool],
    frontier_key: FrontierKeys,
    stop_at_viable: bool = False,
) -> List[Candidate]:
    """One pass over the candidate set: resolve, prune, report.

    For each candidate, lists that are complete or whose frontier passed
    its key are ruled out.  A candidate with no list left open is
    resolved: it leaves the set and is returned, its ``lower`` now the
    exact score.  A candidate whose capped upper bound is below ``tau``
    is dropped.  With ``stop_at_viable`` the pass ends at the first
    candidate that stays (Section V's lazy scan): the candidates after it
    may hold dead ones, which costs memory but never correctness.
    """
    all_mask = (1 << len(lists)) - 1
    query_len = lists.query.length
    idf_squared = lists.idf_squared
    resolved: List[Candidate] = []
    for cand in candidates.scan():
        lists.stats.charge_candidate_scan()
        key = (cand.length, cand.set_id)
        known = cand.seen_mask | cand.dead_mask
        open_idf_squared = 0.0
        for i, fk in enumerate(frontier_key):
            if known >> i & 1:
                continue
            if complete[i] or (fk is not None and fk >= key):
                cand.rule_out(i)
            else:
                open_idf_squared += idf_squared[i]
        if cand.resolved(all_mask):
            candidates.remove(cand.set_id)
            resolved.append(cand)
            continue
        upper = magnitude_upper_bound(
            cand.length, query_len, open_idf_squared, cand.lower
        )
        if upper < tau:
            candidates.remove(cand.set_id)
        elif stop_at_viable:
            break
    return resolved


def frontier_threshold(
    frontier_contrib: Sequence[float], complete: Sequence[bool]
) -> float:
    """``F = Σ_i w_i(f_i)`` over the lists still open: the best score a
    set not yet seen in any list can reach.  Once ``F < tau`` no new
    candidate can qualify."""
    return sum(c for c, done in zip(frontier_contrib, complete) if not done)


def check_frontier_monotone(
    lists: QueryLists, list_index: int, length: float, previous: float
) -> None:
    """Magnitude Boundedness at the frontier: the contribution of the
    newly popped posting may never exceed the list's previous frontier
    contribution."""
    contribution = lists.contribution(list_index, length)
    if contribution > previous + 1e-12:
        raise ContractViolation(
            "magnitude-boundedness",
            f"list {lists.tokens[list_index]!r} frontier contribution "
            f"rose from {previous!r} to {contribution!r}; per-token "
            "contributions must be non-increasing",
        )
