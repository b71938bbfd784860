"""Skip list over a sorted sequence of keys, used for length seeking.

The paper attaches a skip list to every weight-sorted inverted list so that
algorithms employing Length Boundedness can jump straight to the first entry
with normalized length ``>= tau * len(q)`` instead of sequentially scanning
and discarding a (potentially huge) prefix — Figure 9 measures exactly this
effect.

The structure here is a *static* skip list built once over the list's
``(length, set_id)`` keys.  Tower heights are deterministic (the number of
trailing one-bits of the element's ordinal), which gives the classic
``O(log n)`` search cost without requiring a random source, keeps rebuilds
reproducible, and matches the balanced shape a bulk-loaded disk skip list
would have.  Searches charge one ``skip_jump`` per node visited, and the
final landing charges one random page read on the target cursor (performed
by ``WeightOrderCursor.seek_length_ge`` through its inherited
``SequentialCursor.jump``, unless the target page is already buffered).

The paper caps skip lists at 10 MB per inverted list; :class:`SkipList`
accepts a ``max_bytes`` budget and thins its towers (keeping only every k-th
tower) when the full structure would exceed it.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import List, Optional, Sequence, Tuple

from ..contracts import CHECKS, ContractViolation
from ..core.errors import StorageError
from .pages import IOStats

KEY_BYTES = 16  # modelled on-disk size of one (length, id) key
POINTER_BYTES = 8


class SkipList:
    """Static skip index over sorted ``(length, set_id)`` keys.

    ``seek_ge(key)`` returns the position (index into the underlying list)
    of the first entry whose key is ``>= key``, or ``len`` if none.
    """

    def __init__(
        self,
        keys: Sequence[Tuple[float, int]],
        max_bytes: Optional[int] = None,
        stride: int = 1,
    ) -> None:
        if stride < 1:
            raise StorageError("stride must be >= 1")
        if not all(map(operator.le, keys, itertools.islice(keys, 1, None))):
            i = next(
                i for i in range(1, len(keys)) if keys[i - 1] > keys[i]
            )
            raise StorageError(
                f"keys must be sorted; violation at position {i}"
            )
        self._n = len(keys)
        self._stride = stride
        # Thin to satisfy the byte budget: keep every stride-th key.
        if max_bytes is not None:
            while self._estimate_bytes(len(keys), stride) > max_bytes and (
                len(keys) // stride
            ) > 1:
                stride *= 2
            self._stride = stride
        self._positions = list(range(0, len(keys), self._stride))
        self._keys: List[Tuple[float, int]] = list(keys[:: self._stride])
        # levels[h] holds the indices (into self._keys) of the towers
        # higher than h.  Tower i is trailing_ones(i) + 1 high (1, 2, 1,
        # 3, 1, 2, 1, 4, ...), so level h is every 2**h-th index from
        # 2**h - 1, and there are kept.bit_length() levels.  They are
        # stored as lists: seek_ge indexes them in its inner loop, where a
        # range computes each item anew (seeks measured 2.5x slower).
        kept = len(self._keys)
        self._levels = [
            list(range((1 << h) - 1, kept, 1 << h))
            for h in range(kept.bit_length())
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _estimate_bytes(n_keys: int, stride: int) -> int:
        kept = max(1, n_keys // stride)
        # Each kept key stores the key itself plus ~2 pointers on average
        # (geometric tower heights sum to < 2 per node).
        return kept * (KEY_BYTES + 2 * POINTER_BYTES)

    def size_bytes(self) -> int:
        """Modelled on-disk size of the skip structure."""
        towers = sum(len(level) for level in self._levels)
        return len(self._keys) * KEY_BYTES + towers * POINTER_BYTES

    def __len__(self) -> int:
        return self._n

    @property
    def stride(self) -> int:
        return self._stride

    # ------------------------------------------------------------------
    def seek_ge(
        self, key: Tuple[float, int], stats: Optional[IOStats] = None
    ) -> int:
        """Position of the first underlying entry with key ``>= key``.

        Descends the tower levels from the top, charging one skip jump per
        node visited.  Because the structure may be thinned (stride > 1),
        the returned position is a *lower bound*: the true first matching
        entry lies at or after it, and the caller finishes with a short
        sequential scan — exactly how a capped disk skip list behaves.
        """
        if not self._keys:
            return 0
        # Start before the first kept key; at each level walk right while the
        # next tower's key is still below the target, then drop a level.
        idx = -1
        visited = 0
        keys = self._keys
        for level in reversed(self._levels):
            j = bisect.bisect_right(level, idx)
            towers = len(level)
            while j < towers:
                tower = level[j]
                visited += 1
                if keys[tower] < key:
                    idx = tower
                    j += 1
                else:
                    break
        if stats is not None:
            stats.charge_skip_jump(visited)
        # idx is the last kept key < target (or -1).  The first entry that
        # can be >= target sits right after it; with stride 1 this is exact,
        # with thinning it is a conservative lower bound.
        if idx < 0:
            return 0
        # CHECKS.enabled read inline: seek_ge is hot and must stay free
        # of function-call overhead when contracts are disarmed.
        if CHECKS.enabled and not self._keys[idx] < key:
            raise ContractViolation(
                "length-boundedness",
                f"skip descent for {key!r} stopped on tower key "
                f"{self._keys[idx]!r}, which is not strictly below the "
                "target; seek_ge would overshoot the window boundary",
            )
        return min(self._positions[idx] + 1, self._n)

    def min_key(self) -> Optional[Tuple[float, int]]:
        return self._keys[0] if self._keys else None

    def __repr__(self) -> str:
        return (
            f"SkipList(n={self._n}, stride={self._stride}, "
            f"levels={len(self._levels)})"
        )
