"""Updatable search over a growing collection — epoch-based statistics.

The paper's indexes are static for a reason: every idf weight depends on
the global corpus (``N`` and each ``N(t)``), so inserting one set shifts
*every* normalized length and every stored posting order.  Real deployments
still need inserts; the standard resolution (used by search engines) is
*epoching*: scores are defined against a statistics snapshot, new data is
scored with that snapshot, and a rebuild refreshes the snapshot once
enough data has arrived.

With the statistics pinned, ``len(s)`` of an inserted set is fixed, so an
insert adds one ``(len(s), id)`` posting to each of its tokens' lists and
Order Preservation (Property 1) keeps every list sorted.
:class:`UpdatableSearcher` implements that contract over one index:

* ``add(tokens, payload)`` — visible to the *next* query; it costs the
  rebuild of the lists the set touches
  (:meth:`~repro.storage.invlist.InvertedIndex.with_set`), every other
  list is shared with the previous index;
* scores are always computed with the **current epoch's statistics** (the
  corpus as of the last :meth:`rebuild`); this is documented, observable
  (:attr:`epoch`), and tested — after ``rebuild()`` results equal a fresh
  build over everything;
* ``auto_rebuild_fraction`` — rebuild automatically once the sets added
  since the epoch began exceed that fraction of the epoch's sets (default
  25 %), bounding the drift window.

The one snapshot reference is :attr:`index`: writers publish a new index
under a lock and never mutate a published one, and every query reads the
reference once, so a query sees one epoch and one set of inserts.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Optional, Sequence, Tuple

from .collection import SetCollection, SetRecord
from .errors import ConfigurationError
from .search import SetSimilaritySearcher


class UpdatableSearcher(SetSimilaritySearcher):
    """A searcher that takes inserts, scored with per-epoch statistics."""

    def __init__(
        self,
        initial_sets: Optional[Sequence[Sequence[str]]] = None,
        payloads: Optional[Sequence[Any]] = None,
        auto_rebuild_fraction: float = 0.25,
    ) -> None:
        if not (0.0 < auto_rebuild_fraction <= 1.0):
            raise ConfigurationError(
                "auto_rebuild_fraction must be in (0, 1]"
            )
        self.auto_rebuild_fraction = auto_rebuild_fraction
        self._writer = threading.RLock()
        initial = SetCollection.from_token_sets(initial_sets or (), payloads)
        self._publish(_EpochCollection(0, initial))

    def _publish(self, collection: "_EpochCollection") -> None:
        """Build the epoch's index and make it the published one."""
        super().__init__(collection)

    # Bound here too, so per-class wrappers (span tracing) find it in
    # this class's own namespace.
    search = SetSimilaritySearcher.search

    @property
    def epoch(self) -> int:
        """How many rebuilds have refreshed the statistics."""
        return self.index.collection.epoch

    @property
    def stats_epoch(self):
        """The statistics snapshot every score is computed against."""
        return self.index.collection.stats

    def __len__(self) -> int:
        return self.index.num_sets

    @property
    def pending(self) -> int:
        """Sets inserted since the current epoch's snapshot."""
        index = self.index
        return index.num_sets - index.collection.stats.num_sets

    @property
    def version(self) -> Tuple[int, int]:
        """Cache-invalidation token: changes on every insert and rebuild.

        Both parts come from one read of the published index, so a
        token always names the snapshot a query would search."""
        index = self.index
        return (index.collection.epoch, index.num_sets)

    # ------------------------------------------------------------------
    def add(self, tokens: Sequence[str], payload: Any = None) -> int:
        """Insert one set; returns its id.  Visible to the next query."""
        with self._writer:
            index = self.index
            collection = index.collection
            set_id = collection.add(tokens, payload)
            self.index = index.with_set(
                set_id, collection[set_id].tokens, collection.length(set_id)
            )
            base = collection.stats.num_sets
            if self.pending >= self.auto_rebuild_fraction * max(base, 1):
                self.rebuild()
            return set_id

    def rebuild(self) -> int:
        """Start a new epoch: refresh the statistics snapshot from every
        set and rebuild the index.  Returns the new epoch number."""
        with self._writer:
            collection = self.index.collection
            self._publish(_EpochCollection(collection.epoch + 1, collection))
            return self.epoch

    def payload(self, set_id: int) -> Any:
        return self.collection.payload(set_id)


class _EpochCollection(SetCollection):
    """One epoch's sets, with statistics pinned when it is made.

    Sets added later are scored with the pinned statistics, so no stored
    length ever shifts.  A rebuild makes a new collection over the same
    records.
    """

    def __init__(self, epoch: int, records: Iterable[SetRecord]) -> None:
        super().__init__()
        self.epoch = epoch
        self._records = list(records)
        self.freeze()
        self.lengths()  # pin the statistics and every length now

    def add(self, tokens: Sequence[str], payload: Any = None) -> int:
        tokens = list(tokens)
        # The length goes in first: a reader that sees the record can
        # always look its length up.
        self._lengths.append(self._stats.length(tokens))
        return self._append(tokens, payload)
