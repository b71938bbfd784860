"""Candidate-set bookkeeping structures for the threshold algorithms.

Three organizations, matching the paper:

* :class:`Candidate` — per-set running state (length, aggregated lower
  bound, bitmask of lists where the set has been seen).
* :class:`HashCandidateSet` — a flat hash table keyed by set id, scanned in
  full (or lazily, with early termination) once per round-robin iteration.
  This is what NRA/iNRA use.
* :class:`PartitionedCandidateSet` — Section VII's organization for the
  Hybrid algorithm: one length-sorted list ``c_i`` per inverted list plus a
  hash table.  Candidates discovered in list ``i`` arrive in increasing
  ``(length, id)`` order, so insertion is an O(1) append; ``max_len(C)`` is
  a running value, recomputed as the max over the tails of the per-list
  lists (O(n), not O(|C|)) only after its holder leaves.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["Candidate", "CandidateSet", "HashCandidateSet", "PartitionedCandidateSet"]


class Candidate:
    """Running state for one set under consideration.

    ``seen_mask`` has bit ``i`` set once the set has been read from list
    ``i``; ``dead_mask`` has bit ``i`` set once list ``i`` is *ruled out*
    for this set (order preservation passed it, or the list completed).
    The exact score is final when every list is either seen or dead.
    """

    __slots__ = ("set_id", "length", "lower", "seen_mask", "dead_mask")

    def __init__(self, set_id: int, length: float) -> None:
        self.set_id = set_id
        self.length = length
        self.lower = 0.0
        self.seen_mask = 0
        self.dead_mask = 0

    def see(self, list_index: int, contribution: float) -> None:
        bit = 1 << list_index
        if not self.seen_mask & bit:
            self.seen_mask |= bit
            self.lower += contribution

    def seen(self, list_index: int) -> bool:
        return bool(self.seen_mask & (1 << list_index))

    def rule_out(self, list_index: int) -> None:
        self.dead_mask |= 1 << list_index

    def resolved(self, all_mask: int) -> bool:
        """True when every list has been seen or ruled out (score final)."""
        return (self.seen_mask | self.dead_mask) & all_mask == all_mask

    def sort_key(self) -> Tuple[float, int]:
        return (self.length, self.set_id)

    def __repr__(self) -> str:
        return (
            f"Candidate(id={self.set_id}, len={self.length:.3f}, "
            f"lower={self.lower:.4f})"
        )


class HashCandidateSet:
    """Flat hash-table candidate set (NRA / iNRA organization)."""

    def __init__(self) -> None:
        self._by_id: Dict[int, Candidate] = {}
        self.peak = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, set_id: int) -> bool:
        return set_id in self._by_id

    def get(self, set_id: int) -> Optional[Candidate]:
        return self._by_id.get(set_id)

    def add(self, candidate: Candidate, discovered_in: int = 0) -> Candidate:
        """Insert; ``discovered_in`` is ignored (there are no partitions)."""
        self._by_id[candidate.set_id] = candidate
        if len(self._by_id) > self.peak:
            self.peak = len(self._by_id)
        return candidate

    def remove(self, set_id: int) -> None:
        self._by_id.pop(set_id, None)

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self._by_id.values())

    def scan(self) -> List[Candidate]:
        """Snapshot for iteration while mutating the set."""
        return list(self._by_id.values())


class PartitionedCandidateSet:
    """Section VII's per-list partitioned organization (used by Hybrid).

    Each candidate lives in exactly one partition: the list it was first
    discovered in.  Within a partition, candidates are stored in discovery
    order, which by construction is increasing ``(length, id)``.  Dead
    candidates are tombstoned in the hash table and physically removed
    lazily when :meth:`max_length` trims a partition's back.
    """

    def __init__(self, num_lists: int) -> None:
        self._by_id: Dict[int, Candidate] = {}
        self._partitions: List[List[Candidate]] = [[] for _ in range(num_lists)]
        self.peak = 0
        # max_len(C), or None once a removal may have taken the maximum.
        self._max_length: Optional[float] = 0.0

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, set_id: int) -> bool:
        return set_id in self._by_id

    def get(self, set_id: int) -> Optional[Candidate]:
        return self._by_id.get(set_id)

    def add(self, candidate: Candidate, discovered_in: int) -> Candidate:
        """Append to the discovery partition — O(1), no sorting needed."""
        self._by_id[candidate.set_id] = candidate
        self._partitions[discovered_in].append(candidate)
        if len(self._by_id) > self.peak:
            self.peak = len(self._by_id)
        best = self._max_length
        if best is not None and candidate.length > best:
            self._max_length = candidate.length
        return candidate

    def remove(self, set_id: int) -> None:
        """Tombstone: drop from the hash table; the partition entry is
        skipped (and physically dropped when the back is trimmed)."""
        candidate = self._by_id.pop(set_id, None)
        if candidate is not None:
            self._forget(candidate)

    def _forget(self, candidate: Candidate) -> None:
        """Invalidate the running maximum if ``candidate`` may have held it."""
        best = self._max_length
        if best is not None and candidate.length >= best:
            self._max_length = None

    def _trim_partition_back(self, partition: List[Candidate]) -> None:
        while partition and partition[-1].set_id not in self._by_id:
            partition.pop()

    def max_length(self) -> float:
        """``max_len(C)``: max candidate length, from the partition tails.

        A running value: :meth:`add` raises it, and only a removal that
        takes the current maximum makes the next call recompute it, in
        O(num_lists) — peeking one (live) tail per partition — instead of
        a scan of the whole candidate set; this is exactly the point of
        the Section VII organization.
        """
        best = self._max_length
        if best is None:
            best = 0.0
            for partition in self._partitions:
                self._trim_partition_back(partition)
                if partition:
                    tail = partition[-1]
                    if tail.length > best:
                        best = tail.length
            self._max_length = best
        return best

    def __iter__(self) -> Iterator[Candidate]:
        return iter(self._by_id.values())

    def scan(self) -> List[Candidate]:
        return list(self._by_id.values())


CandidateSet = Union[HashCandidateSet, PartitionedCandidateSet]
