"""Index integrity validation — check every structural invariant loudly.

The algorithms' correctness rests on invariants the index must uphold:

1. every weight-ordered list is sorted by ``(length, id)``;
2. a set's normalized length is **identical in every list** it appears in,
   and matches the collection's computed length (Property 1 collapses
   without this — see the reconstruction tests that tripped over it);
3. every (set, token) membership appears in exactly the right lists —
   no missing and no phantom postings;
4. auxiliary structures agree: the hash index contains exactly the list's
   ids; id-ordered lists hold the same memberships; skip-list seeks land
   at or before every boundary they are asked for.  Hash indexes and
   id-ordered lists are built on first use, so validating materializes
   every one of them.

:func:`validate_index` runs all checks and returns a
:class:`ValidationReport`; ``report.raise_if_invalid()`` turns findings
into :class:`~repro.core.errors.StorageError`.  Intended after loading
foreign data, around persistence, and in stress tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.collection import SetCollection
from ..core.errors import StorageError

if TYPE_CHECKING:  # annotation-only: keeps core below storage in the DAG
    from ..storage.invlist import InvertedIndex


class ValidationReport:
    """Findings from an index validation pass."""

    def __init__(self) -> None:
        self.errors: List[str] = []
        self.checked_tokens = 0
        self.checked_postings = 0

    def add(self, message: str) -> None:
        self.errors.append(message)

    @property
    def valid(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        if self.errors:
            preview = "; ".join(self.errors[:5])
            more = (
                f" (+{len(self.errors) - 5} more)"
                if len(self.errors) > 5
                else ""
            )
            raise StorageError(f"index validation failed: {preview}{more}")

    def __repr__(self) -> str:
        state = "valid" if self.valid else f"{len(self.errors)} errors"
        return (
            f"ValidationReport({state}, tokens={self.checked_tokens}, "
            f"postings={self.checked_postings})"
        )


def validate_index(
    index: InvertedIndex,
    collection: Optional[SetCollection] = None,
    length_tolerance: float = 1e-9,
) -> ValidationReport:
    """Run all structural checks; pass the collection for membership and
    length cross-validation (defaults to the index's own collection)."""
    report = ValidationReport()
    coll = collection if collection is not None else index.collection
    lengths = coll.lengths()

    seen_memberships: Dict[tuple, float] = {}
    observed_length: Dict[int, float] = {}

    for token in index.tokens():
        report.checked_tokens += 1
        # Tolerant scan: this pass reports corruption softly, so it must
        # not trip the fail-fast contract cursor on the first bad key.
        cursor = index.cursor(token, checked=False)
        previous = None
        ids_in_list = []
        while not cursor.exhausted():
            length, set_id = cursor.next()
            report.checked_postings += 1
            key = (length, set_id)
            if previous is not None and key < previous:
                report.add(
                    f"list {token!r} out of order at id {set_id}"
                )
            previous = key
            ids_in_list.append(set_id)
            # Invariant 2: one length per set, everywhere.
            earlier = observed_length.get(set_id)
            if earlier is not None and earlier != length:
                report.add(
                    f"set {set_id} has length {length!r} in list "
                    f"{token!r} but {earlier!r} elsewhere"
                )
            observed_length[set_id] = length
            if not (0 <= set_id < len(coll)):
                report.add(
                    f"list {token!r} references unknown set {set_id}"
                )
                continue
            if abs(lengths[set_id] - length) > length_tolerance:
                report.add(
                    f"set {set_id} stored length {length!r} != computed "
                    f"{lengths[set_id]!r}"
                )
            if token not in coll[set_id].tokens:
                report.add(
                    f"phantom posting: set {set_id} lacks token {token!r}"
                )
            seen_memberships[(set_id, token)] = length

        # Invariant 4a: hash index mirrors the list exactly.
        for set_id in ids_in_list:
            if index.probe(token, set_id) is None:
                report.add(f"hash index for {token!r} missing id {set_id}")

        # Invariant 4b: id-ordered list holds the same memberships.
        id_cursor = index.id_cursor(token)
        id_side = []
        while not id_cursor.exhausted():
            sid, ln = id_cursor.next()
            id_side.append(sid)
        if sorted(ids_in_list) != id_side:
            report.add(
                f"id-ordered list for {token!r} disagrees with the "
                f"weight-ordered list"
            )

    # Invariant 3: no missing postings.
    for rec in coll:
        for token in rec.tokens:
            if (rec.set_id, token) not in seen_memberships:
                if token in index:
                    report.add(
                        f"missing posting: set {rec.set_id} has token "
                        f"{token!r} but the list lacks it"
                    )
                else:
                    report.add(
                        f"missing list for token {token!r} "
                        f"(set {rec.set_id})"
                    )
    return report
