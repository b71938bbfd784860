"""Skip list over a sorted sequence of keys, used for length seeking.

The paper attaches a skip list to every weight-sorted inverted list so that
algorithms employing Length Boundedness can jump straight to the first entry
with normalized length ``>= tau * len(q)`` instead of sequentially scanning
and discarding a (potentially huge) prefix — Figure 9 measures exactly this
effect.

The structure here is a *static* skip list over the list's ``(length,
set_id)`` keys.  It is a stride over the sorted list it is given: kept key
``t`` is ``keys[t * stride]``, and the keys are not copied, so the list must
not change while the skip list is in use (an inverted index hands it the
weight file's own records).  Tower heights are deterministic (the number of
trailing one-bits of the kept key's ordinal, plus one), which gives the
classic ``O(log n)`` search cost without requiring a random source, keeps
rebuilds reproducible, and matches the balanced shape a bulk-loaded disk skip
list would have.  With that shape the towers need not be stored: from a tower
of level ``h + 1`` (or the start) at position ``pos``, the next tower on level
``h`` is at ``pos + (stride << h)``.  Searches charge one ``skip_jump`` per
node visited, and the final landing charges one random page read on the
target cursor (performed by ``WeightOrderCursor.seek_length_ge`` through its
inherited ``SequentialCursor.jump``, unless the target page is already
buffered).

The paper caps skip lists at 10 MB per inverted list; :class:`SkipList`
accepts a ``max_bytes`` budget and thins its towers (keeping only every k-th
tower) when the full structure would exceed it.
"""

from __future__ import annotations

import itertools
import operator
from typing import Optional, Sequence, Tuple

from ..contracts import CHECKS, ContractViolation
from ..core.errors import StorageError
from .pages import IOStats

KEY_BYTES = 16  # modelled on-disk size of one (length, id) key
POINTER_BYTES = 8


class SkipList:
    """Static skip index over sorted ``(length, set_id)`` keys.

    ``seek_ge(key)`` returns the position (index into the underlying list)
    of the first entry whose key is ``>= key``, or ``len`` if none.  The
    underlying list is the one passed in, not a copy.
    """

    __slots__ = ("_records", "_n", "_stride")

    def __init__(
        self,
        keys: Sequence[Tuple[float, int]],
        max_bytes: Optional[int] = None,
        stride: int = 1,
    ) -> None:
        self._adopt(keys, max_bytes, stride)
        if not all(map(operator.le, keys, itertools.islice(keys, 1, None))):
            i = next(
                i for i in range(1, len(keys)) if keys[i - 1] > keys[i]
            )
            raise StorageError(
                f"keys must be sorted; violation at position {i}"
            )

    @classmethod
    def _over_sorted(
        cls,
        keys: Sequence[Tuple[float, int]],
        max_bytes: Optional[int],
        stride: int,
    ) -> "SkipList":
        """A skip list over ``keys`` that trusts them to be sorted, for
        an index build, whose lists are sorted by construction (and
        checked by ``check_order_preservation`` when invariants are
        armed)."""
        skip = cls.__new__(cls)
        skip._adopt(keys, max_bytes, stride)
        return skip

    def _adopt(
        self,
        keys: Sequence[Tuple[float, int]],
        max_bytes: Optional[int],
        stride: int,
    ) -> None:
        if stride < 1:
            raise StorageError("stride must be >= 1")
        self._records = keys
        self._n = len(keys)
        # Thin to satisfy the byte budget: keep every stride-th key.
        if max_bytes is not None:
            while self._estimate_bytes(len(keys), stride) > max_bytes and (
                len(keys) // stride
            ) > 1:
                stride *= 2
        self._stride = stride

    # ------------------------------------------------------------------
    @staticmethod
    def _estimate_bytes(n_keys: int, stride: int) -> int:
        kept = max(1, n_keys // stride)
        # Each kept key stores the key itself plus ~2 pointers on average
        # (geometric tower heights sum to < 2 per node).
        return kept * (KEY_BYTES + 2 * POINTER_BYTES)

    def _kept(self) -> int:
        """Number of kept keys: positions ``0, stride, 2*stride, ...``."""
        return -(-self._n // self._stride)

    def size_bytes(self) -> int:
        """Modelled on-disk size of the skip structure.

        Tower ``t`` rises above level ``h`` when ``t + 1`` is a multiple
        of ``2**h``, so level ``h`` holds ``kept >> h`` pointers.
        """
        kept = self._kept()
        towers = sum(kept >> h for h in range(kept.bit_length()))
        return kept * KEY_BYTES + towers * POINTER_BYTES

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
        n = self._n
        if not n:
            return 0
        # Start before the first kept key; at each level walk right while the
        # next tower's key is still below the target, then drop a level.
        # ``pos`` sits on a tower of the level above (or before the start),
        # so the level's next tower is one step of ``stride << h`` away.
        stride = self._stride
        keys = self._records
        pos = -stride
        visited = 0
        levels = ((n - 1) // stride + 1).bit_length()
        for h in range(levels - 1, -1, -1):
            step = stride << h
            nxt = pos + step
            while nxt < n:
                visited += 1
                if keys[nxt] < key:
                    pos = nxt
                    nxt += step
                else:
                    break
        if stats is not None:
            stats.charge_skip_jump(visited)
        # pos is the last kept key < target (or before the start).  The
        # first entry that can be >= target sits right after it; with
        # stride 1 this is exact, with thinning a conservative lower bound.
        if pos < 0:
            return 0
        # CHECKS.enabled read inline: seek_ge is hot and must stay free
        # of function-call overhead when contracts are disarmed.
        if CHECKS.enabled and not keys[pos] < key:
            raise ContractViolation(
                "length-boundedness",
                f"skip descent for {key!r} stopped on tower key "
                f"{keys[pos]!r}, which is not strictly below the "
                "target; seek_ge would overshoot the window boundary",
            )
        return pos + 1

    def min_key(self) -> Optional[Tuple[float, int]]:
        return self._records[0] if self._n else None

    def __repr__(self) -> str:
        return (
            f"SkipList(n={self._n}, stride={self._stride}, "
            f"levels={self._kept().bit_length()})"
        )
