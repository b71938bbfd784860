"""Streaming selections: yield answers as they are confirmed.

The batch interfaces return complete answer lists; interactive callers
(autocomplete, "first good match wins" pipelines) want results *as found*
and the right to stop early — abandoning the scan without paying for the
rest.  Two algorithm families support confirmed-early emission naturally:

* **sort-by-id** — the heap-top id's score is final the moment it is
  popped (it either appeared in every list already or never will again);
* **TA-style** — every encountered id is completed on the spot by random
  access, so any qualifying id can be emitted immediately; iTA's window
  and probe-avoidance carry over.

:func:`stream_search` returns a generator over
:class:`~repro.algorithms.base.SearchResult`; dropping the generator stops
all list consumption at that point.  NRA-family algorithms are deliberately
not offered here: their answers confirm only at pruning boundaries, which
makes emission order erratic — use the batch API for those.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..core.errors import ConfigurationError
from ..core.properties import validate_threshold
from ..core.query import PreparedQuery
from ..storage.invlist import InvertedIndex
from ..storage.pages import IOStats
from .base import SearchResult, make_algorithm

STREAMING_ALGORITHMS = ("sort-by-id", "ita")


def stream_search(
    index: InvertedIndex,
    query: PreparedQuery,
    tau: float,
    algorithm: str = "ita",
    stats: Optional[IOStats] = None,
    use_length_bounds: bool = True,
    use_skip_lists: bool = True,
) -> Iterator[SearchResult]:
    """Generate answers incrementally; safe to abandon at any point.

    Runs the registered algorithm's own generator, so a fully consumed
    stream gives the answers and ledger of ``search``.  Emission order:
    ascending set id for ``sort-by-id``; discovery order (roughly
    descending contribution) for ``ita``.  Every emitted score is exact
    and final.
    """
    validate_threshold(tau)
    if algorithm not in STREAMING_ALGORITHMS:
        raise ConfigurationError(
            f"streaming supports {STREAMING_ALGORITHMS}, got {algorithm!r}"
        )
    return make_algorithm(
        algorithm,
        index,
        use_length_bounds=use_length_bounds,
        use_skip_lists=use_skip_lists,
    ).stream(query, tau, stats)


def first_match(
    index: InvertedIndex,
    query: PreparedQuery,
    tau: float,
    algorithm: str = "ita",
) -> Optional[SearchResult]:
    """The cheapest 'does anything match?' probe: stop at the first hit."""
    for result in stream_search(index, query, tau, algorithm):
        return result
    return None
