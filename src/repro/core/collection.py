"""SetCollection: the database of token sets the algorithms search over.

A collection assigns every set a dense integer id (0..N-1) and stores each
set once, as its multiset token counts (used by TF/IDF and BM25); the set
view IDF uses is the keys of those counts.  It computes the corpus
:class:`~repro.core.weights.IdfStatistics` and per-set normalized lengths
once, on demand.

The paper's experiments store one *word* per set (each word decomposed into
3-grams) with an identifier encoding its location in the base table; here the
``payload`` slot carries any such source metadata.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    KeysView,
    List,
    Optional,
    Sequence,
)

from .errors import ConfigurationError, IndexNotBuiltError
from .tokenize import Tokenizer
from .weights import IdfStatistics, tf_counts


class SetRecord:
    """One database entry: id, multiset token counts, payload."""

    __slots__ = ("set_id", "counts", "payload")

    def __init__(
        self, set_id: int, counts: Dict[str, int], payload: Any = None
    ) -> None:
        self.set_id = set_id
        self.counts = counts
        self.payload = payload

    @property
    def tokens(self) -> KeysView[str]:
        """The distinct tokens: a read-only view of ``counts``' keys,
        which answers ``in``, ``len``, iteration, ``&``, ``|`` and ``==``
        like a frozenset (but is neither hashable nor picklable)."""
        return self.counts.keys()

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return f"SetRecord(id={self.set_id}, size={len(self.counts)})"


class SetCollection:
    """An append-then-freeze collection of token sets.

    Typical construction paths:

    * :meth:`from_strings` — tokenize raw strings with a
      :class:`~repro.core.tokenize.Tokenizer`;
    * :meth:`from_token_sets` — supply pre-tokenized iterables;
    * incremental: create empty, call :meth:`add` repeatedly, then
      :meth:`freeze`.

    Statistics (:attr:`stats`) and normalized lengths (:meth:`length`) are
    computed lazily at first use after freezing; adding after freezing raises.
    """

    def __init__(self) -> None:
        self._records: List[SetRecord] = []
        self._frozen = False
        self._generation = 0
        self._stats: Optional[IdfStatistics] = None
        self._lengths: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_strings(
        cls,
        strings: Iterable[str],
        tokenizer: Tokenizer,
        payload_fn: Optional[Callable[[int, str], Any]] = None,
    ) -> "SetCollection":
        """Build from raw strings; payload defaults to the source string."""
        coll = cls()
        for i, text in enumerate(strings):
            tokens = tokenizer.tokens(text)
            payload = payload_fn(i, text) if payload_fn else text
            coll.add(tokens, payload=payload)
        coll.freeze()
        return coll

    @classmethod
    def from_token_sets(
        cls,
        token_sets: Iterable[Iterable[str]],
        payloads: Optional[Sequence[Any]] = None,
    ) -> "SetCollection":
        coll = cls()
        for i, toks in enumerate(token_sets):
            payload = payloads[i] if payloads is not None else None
            coll.add(toks, payload=payload)
        coll.freeze()
        return coll

    def add(self, tokens: Sequence[str], payload: Any = None) -> int:
        """Append one set; returns its id. Empty token lists are allowed
        (they simply never match anything)."""
        return self.add_counts(tf_counts(list(tokens)), payload)

    def add_counts(self, counts: Dict[str, int], payload: Any = None) -> int:
        """Append one set given as token counts (its multiset view, as
        :mod:`repro.storage.persist` stores it); returns its id.  The dict
        becomes the record's ``counts``; every count must be positive."""
        if self._frozen:
            raise ConfigurationError("collection is frozen; cannot add")
        return self._append_counts(counts, payload)

    def _append_counts(self, counts: Dict[str, int], payload: Any) -> int:
        rec = SetRecord(len(self._records), counts, payload)
        self._records.append(rec)
        self._generation += 1
        return rec.set_id

    def freeze(self) -> "SetCollection":
        self._frozen = True
        return self

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def generation(self) -> int:
        """Mutation counter: bumped on every :meth:`add`.  Caches keyed on
        ``(id(collection), generation)`` are safely invalidated by any
        content change (the service layer's result cache relies on it)."""
        return self._generation

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SetRecord]:
        return iter(self._records)

    def __getitem__(self, set_id: int) -> SetRecord:
        return self._records[set_id]

    def record(self, set_id: int) -> SetRecord:
        return self._records[set_id]

    def payload(self, set_id: int) -> Any:
        return self._records[set_id].payload

    def token_sets(self) -> Iterator[KeysView[str]]:
        for rec in self._records:
            yield rec.tokens

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _require_frozen(self) -> None:
        if not self._frozen:
            raise IndexNotBuiltError(
                "collection must be frozen before computing statistics"
            )

    @property
    def stats(self) -> IdfStatistics:
        """Corpus idf statistics (computed once, cached)."""
        self._require_frozen()
        if self._stats is None:
            self._stats = IdfStatistics.from_sets(
                rec.tokens for rec in self._records
            )
        return self._stats

    def length(self, set_id: int) -> float:
        """Normalized length of the set with the given id (cached)."""
        return self.lengths()[set_id]

    def lengths(self) -> List[float]:
        """Normalized lengths of every set, indexed by set id."""
        self._require_frozen()
        if self._lengths is None:
            stats = self.stats
            idf_squared = {t: stats.idf_squared(t) for t in stats.tokens()}
            # normalized_length's sum with each idf² computed once: plain
            # float adds from 0.0 in sorted-token order, so the same bits.
            # Not sum(), which compensates float sums from Python 3.12 on.
            self._lengths = [
                math.sqrt(
                    functools.reduce(
                        operator.add,
                        map(idf_squared.__getitem__, sorted(rec.tokens)),
                        0.0,
                    )
                )
                for rec in self._records
            ]
        return self._lengths

    def vocabulary_size(self) -> int:
        return len(self.stats)

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "building"
        return f"SetCollection(n={len(self._records)}, {state})"


def collection_summary(coll: SetCollection) -> Dict[str, float]:
    """Descriptive statistics used by benchmarks and examples."""
    sizes = [len(rec) for rec in coll]
    lengths = coll.lengths() if len(coll) else []
    def _mean(xs: Sequence[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0
    return {
        "num_sets": float(len(coll)),
        "vocabulary": float(coll.vocabulary_size()) if len(coll) else 0.0,
        "mean_set_size": _mean(sizes),
        "max_set_size": float(max(sizes)) if sizes else 0.0,
        "mean_length": _mean(lengths),
        "max_length": max(lengths) if lengths else 0.0,
    }
