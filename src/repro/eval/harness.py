"""Experiment harness: run workloads, aggregate telemetry, print paper rows.

The benchmarks in ``benchmarks/`` are thin wrappers around this module.
:class:`ExperimentContext` builds one corpus + all indexes; ``run_workload``
executes a query workload under one engine configuration and aggregates the
measurements the paper reports:

* average wall-clock seconds per query (Figure 6) — *secondary* here, since
  CPython list-merge timings are not comparable to the paper's C++/disk
  setup;
* pruning power: mean percentage of list elements never read (Figure 7) —
  the primary, implementation-independent metric;
* simulated I/O: sequential/random pages, hash probes, skip jumps;
* average number of results per query (the counts across the tops of the
  paper's graphs).

Engines are addressed by spec strings: any registered algorithm name
(``sf``, ``inra``, ...), optionally suffixed with ``-nlb`` (length bounding
off) and/or ``-nsl`` (skip lists off), plus ``sql`` / ``sql-nlb`` / each
``sort-by-id``.  Examples: ``"sf"``, ``"sf-nsl"``, ``"inra-nlb"``,
``"sql-nlb"``.
"""

from __future__ import annotations

import re
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..algorithms.base import AlgorithmResult, make_algorithm
from ..core.collection import SetCollection
from ..core.errors import ConfigurationError, EmptyQueryError
from ..core.query import PreparedQuery
from ..core.search import SetSimilaritySearcher
from ..core.tokenize import QGramTokenizer, Tokenizer
from ..data.workloads import QueryWorkload
from ..obs import metrics as obs_metrics
from ..relational.sqlbaseline import SqlBaseline
from .metrics import mean

PAPER_THRESHOLDS = (0.6, 0.7, 0.8, 0.9)
PAPER_MODIFICATIONS = (0, 1, 2, 3)


def _registry_snapshot() -> Optional[Dict[str, Any]]:
    """The global registry's state, or None while telemetry is off."""
    registry = obs_metrics.get_registry()
    return registry.snapshot() if registry.enabled else None


def parse_engine_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split an engine spec into (base name, option overrides).

    Recognized suffixes (stackable): ``-nlb`` (length bounding off),
    ``-nsl`` (skip lists off), ``-bufN`` (LRU buffer pool of N pages,
    e.g. ``ta-buf256``).
    """
    options: Dict[str, Any] = {}
    name = spec
    while True:
        if name.endswith("-nlb"):
            name = name[: -len("-nlb")]
            options["use_length_bounds"] = False
        elif name.endswith("-nsl"):
            name = name[: -len("-nsl")]
            options["use_skip_lists"] = False
        else:
            match = re.search(r"-buf(\d+)$", name)
            if match:
                options["buffer_pool_pages"] = int(match.group(1))
                name = name[: match.start()]
            else:
                break
    return name, options


class WorkloadSummary:
    """Aggregated measurements of one workload under one engine.

    ``metrics_snapshot`` carries the state of the global metrics registry
    at collection time (``None`` while telemetry is disabled) so reports
    can embed registry counters next to the per-query ledgers.
    """

    def __init__(
        self,
        engine: str,
        tau: float,
        workload: QueryWorkload,
        per_query: List[AlgorithmResult],
        wall_seconds_total: float,
        metrics_snapshot: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.engine = engine
        self.tau = tau
        self.workload = workload
        self.per_query = per_query
        self.wall_seconds_total = wall_seconds_total
        self.metrics_snapshot = metrics_snapshot

    # -- the paper's reported quantities --------------------------------
    @property
    def avg_wall_seconds(self) -> float:
        return mean([r.wall_seconds for r in self.per_query])

    @property
    def avg_pruning_power(self) -> float:
        return mean([r.pruning_power for r in self.per_query])

    @property
    def avg_results(self) -> float:
        return mean([float(len(r)) for r in self.per_query])

    @property
    def avg_elements_read(self) -> float:
        return mean([float(r.stats.elements_read) for r in self.per_query])

    @property
    def avg_sequential_pages(self) -> float:
        return mean(
            [float(r.stats.sequential_pages) for r in self.per_query]
        )

    @property
    def avg_random_pages(self) -> float:
        return mean([float(r.stats.random_pages) for r in self.per_query])

    @property
    def avg_io_cost(self) -> float:
        """Weighted I/O model (random = 10x sequential)."""
        return mean([r.stats.cost() for r in self.per_query])

    def latency_percentile(self, fraction: float) -> float:
        """Per-query wall-clock percentile in seconds (p50/p95/p99...)."""
        from .metrics import percentile

        return percentile(
            [r.wall_seconds for r in self.per_query], fraction
        )

    def row(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "tau": self.tau,
            "bucket": f"{self.workload.bucket[0]}-{self.workload.bucket[1]}",
            "mods": self.workload.modifications,
            "queries": len(self.workload),
            "avg_results": round(self.avg_results, 2),
            "avg_wall_ms": round(self.avg_wall_seconds * 1000, 3),
            "p95_wall_ms": round(
                self.latency_percentile(0.95) * 1000, 3
            ),
            "pruning_pct": round(self.avg_pruning_power * 100, 1),
            "avg_elems_read": round(self.avg_elements_read, 1),
            "avg_seq_pages": round(self.avg_sequential_pages, 1),
            "avg_rand_pages": round(self.avg_random_pages, 1),
            "avg_io_cost": round(self.avg_io_cost, 1),
        }

    def __repr__(self) -> str:
        return (
            f"WorkloadSummary({self.engine}, tau={self.tau}, "
            f"wall={self.avg_wall_seconds*1000:.2f}ms, "
            f"pruning={self.avg_pruning_power*100:.1f}%)"
        )


class ExperimentContext:
    """One corpus, indexed every way the paper's competitors need."""

    def __init__(
        self,
        collection: SetCollection,
        tokenizer: Optional[Tokenizer] = None,
        build_sql: bool = True,
    ) -> None:
        self.collection = collection
        self.tokenizer = tokenizer or QGramTokenizer(q=3)
        self.searcher = SetSimilaritySearcher(collection)
        self.sql: Optional[SqlBaseline] = (
            SqlBaseline(collection) if build_sql else None
        )
        self._sql_nlb: Optional[SqlBaseline] = None
        self._sqlite = None

    def sql_engine(self, use_length_bounds: bool = True) -> SqlBaseline:
        if self.sql is None:
            raise ConfigurationError("context built without SQL baseline")
        if use_length_bounds:
            return self.sql
        if self._sql_nlb is None:
            # Same tables and index, different plan bounds: share storage.
            import copy

            clone = copy.copy(self.sql)
            clone.use_length_bounds = False
            self._sql_nlb = clone
        return self._sql_nlb

    def prepare(self, query_text: str) -> PreparedQuery:
        tokens = self.tokenizer.tokens(query_text)
        return PreparedQuery(tokens, self.collection.stats)

    # ------------------------------------------------------------------
    def run_query(
        self, engine_spec: str, query_text: str, tau: float
    ) -> Optional[AlgorithmResult]:
        """One query under one engine; None if it tokenizes to nothing."""
        name, options = parse_engine_spec(engine_spec)
        try:
            query = self.prepare(query_text)
        except EmptyQueryError:
            return None
        if name == "sql":
            engine = self.sql_engine(
                options.get("use_length_bounds", True)
            )
            return engine.search(query, tau)
        if name == "sqlite":
            return self.sqlite_engine().search(query, tau)
        algorithm = make_algorithm(name, self.searcher.index, **options)
        return algorithm.search(query, tau)

    def sqlite_engine(self):
        """A lazily built real-RDBMS engine (stdlib SQLite)."""
        if self._sqlite is None:
            from ..relational.sqlite_backend import SqliteBaseline

            self._sqlite = SqliteBaseline(self.collection)
        return self._sqlite

    def run_workload(
        self, engine_spec: str, workload: QueryWorkload, tau: float
    ) -> WorkloadSummary:
        """All workload queries under one engine, aggregated."""
        per_query: List[AlgorithmResult] = []
        started = time.perf_counter()
        for query_text in workload:
            result = self.run_query(engine_spec, query_text, tau)
            if result is not None:
                per_query.append(result)
        elapsed = time.perf_counter() - started
        return WorkloadSummary(
            engine_spec, tau, workload, per_query, elapsed,
            metrics_snapshot=_registry_snapshot(),
        )

    def sweep(
        self,
        engine_specs: Sequence[str],
        workloads: Sequence[QueryWorkload],
        taus: Sequence[float],
    ) -> List[WorkloadSummary]:
        """Cross product engines x workloads x thresholds."""
        out: List[WorkloadSummary] = []
        for workload in workloads:
            for tau in taus:
                for spec in engine_specs:
                    out.append(self.run_workload(spec, workload, tau))
        return out


def format_table(
    rows: Iterable[Dict[str, Any]], columns: Optional[Sequence[str]] = None
) -> str:
    """Fixed-width text table for benchmark output."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), max(len(str(r.get(c, ""))) for r in rows))
        for c in columns
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    rule = "  ".join("-" * widths[c] for c in columns)
    lines = [header, rule]
    for r in rows:
        lines.append(
            "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)


def rows_to_csv(rows: Iterable[Dict[str, Any]], path) -> int:
    """Write workload rows (``WorkloadSummary.row()`` dicts) as CSV.

    Columns are the union of all row keys, in first-appearance order;
    returns the number of data rows written.
    """
    import csv

    rows = list(rows)
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return len(rows)

