"""Telemetry overhead — disabled metrics must be (nearly) free.

The observability layer's core promise (``docs/observability.md``): a
process that never opts in pays only one ``registry.enabled`` attribute
test per call site, all of which run per *query*, never per posting.
This benchmark measures that promise on the SF hot path — the fastest
algorithm, hence the one where fixed per-query overhead is the largest
relative cost — and records it in ``BENCH_obs.json``:

* **stripped** — ``SelectionAlgorithm._observe`` monkeypatched to a
  no-op: the pre-telemetry code, no flush logic at all.  Only
  ``_observe`` is removed: tracer checks (``obs_trace.current()`` and
  span entry) stay in both modes, so this gate cannot see what they cost,
  and a per-posting tracer check would pass it unnoticed;
* **disabled** — the shipped default: a ``NullRegistry`` installed,
  every call site pays its ``registry.enabled`` test and returns;
* **enabled** — a live ``MetricsRegistry`` collecting everything.

The acceptance bar is **disabled <= 2% over stripped** (min-of-rounds,
modes interleaved pass by pass to decorrelate machine drift).  A
round's sample repeats the 30-query pass, cycling through the modes,
until each mode has run for ``MIN_SAMPLE_SECONDS`` (0.2 s), and records
seconds per pass: a single pass of a few ms reads machine noise.  Set
``REPRO_BENCH_SMOKE=1`` for CI's gross-regression tripwire: fewer
rounds and a 10% bound, because shared runners cannot resolve 2%.

Beside the clock, one pass of each of stripped and disabled is counted
in executed bytecodes and in calls into C, two units that repeat
exactly run to run (``conftest.counted_overhead``).  Disabled may exceed
stripped by at most ``conftest.COUNT_BOUND`` (2%) in each, smoke run or
not; the counts are recorded in ``BENCH_obs.json`` too.

A second test replays the workload per algorithm with metrics enabled
and checks the *registry itself* reproduces the paper's pruning order
(Figure 7): ``elements_read_total{algo=sf}`` < ``inra`` < ``nra``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.algorithms.base import SelectionAlgorithm, make_algorithm
from repro.eval.harness import format_table
from repro.obs import metrics as obs_metrics

from conftest import (
    MIN_SAMPLE_SECONDS,
    assert_counts_within_bound,
    counted_overhead,
    interleaved_sample,
    write_result,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

TAU = 0.8

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in {
    "1", "true", "yes", "on"
}
ROUNDS = 3 if SMOKE else 9
OVERHEAD_BOUND = 0.10 if SMOKE else 0.02


def _prepared_workload(context, workload):
    return [context.prepare(text) for text in workload]


def _run_workload(algorithm, queries):
    started = time.perf_counter()
    for query in queries:
        algorithm.search(query, TAU)
    return time.perf_counter() - started


def test_disabled_overhead_on_sf_hot_path(context, default_workload,
                                          results_dir):
    queries = _prepared_workload(context, default_workload)
    algorithm = make_algorithm("sf", context.searcher.index)

    observe = SelectionAlgorithm._observe
    stripped_patch = lambda self, result, lists: None  # noqa: E731

    def timed(mode):
        if mode == "stripped":
            SelectionAlgorithm._observe = stripped_patch
            registry = obs_metrics.NULL_REGISTRY
        elif mode == "disabled":
            registry = obs_metrics.NULL_REGISTRY
        else:
            registry = obs_metrics.MetricsRegistry()
        try:
            with obs_metrics.use_registry(registry):
                return _run_workload(algorithm, queries)
        finally:
            SelectionAlgorithm._observe = observe

    modes = ("stripped", "disabled", "enabled")
    best = {mode: float("inf") for mode in modes}
    timed("stripped")  # warm caches (buffer pool, bytecode) off the books
    # Interleave the modes pass by pass so clock drift and background
    # load hit all three equally; min-of-rounds is the least noisy
    # estimator for "same code, how fast can it go".
    for _round in range(ROUNDS):
        sample = interleaved_sample(modes, timed)
        for mode in modes:
            best[mode] = min(best[mode], sample[mode])

    disabled_overhead = best["disabled"] / best["stripped"] - 1.0
    enabled_overhead = best["enabled"] / best["stripped"] - 1.0
    counts = counted_overhead(timed)

    record = {
        "corpus_records": len(context.collection),
        "workload_queries": len(default_workload),
        "tau": TAU,
        "rounds": ROUNDS,
        "min_sample_seconds": MIN_SAMPLE_SECONDS,
        "smoke": SMOKE,
        "stripped_seconds": round(best["stripped"], 6),
        "disabled_seconds": round(best["disabled"], 6),
        "enabled_seconds": round(best["enabled"], 6),
        "disabled_overhead_pct": round(disabled_overhead * 100.0, 3),
        "enabled_overhead_pct": round(enabled_overhead * 100.0, 3),
        "overhead_bound_pct": OVERHEAD_BOUND * 100.0,
        **counts,
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    rows = [
        {"mode": mode, "seconds": f"{best[mode]:.4f}",
         "vs_stripped": f"{best[mode] / best['stripped']:.4f}"}
        for mode in modes
    ]
    write_result(
        results_dir, "obs_overhead.txt",
        format_table(rows, ["mode", "seconds", "vs_stripped"]),
    )

    assert_counts_within_bound(record)
    assert disabled_overhead <= OVERHEAD_BOUND, record


def test_registry_reproduces_pruning_order(context, default_workload,
                                           results_dir):
    queries = _prepared_workload(context, default_workload)
    algorithms = ("sf", "inra", "nra")

    with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as registry:
        for name in algorithms:
            algorithm = make_algorithm(name, context.searcher.index)
            for query in queries:
                algorithm.search(query, TAU)
        elements = registry.get("elements_read_total")
        pruned = registry.get("lists_pruned_total")
        read = {
            name: int(elements.labels(algo=name).value)
            for name in algorithms
        }
        abandoned = {
            name: int(pruned.labels(algo=name).value)
            for name in algorithms
        }

    # The registry must tell the same story as Figure 7: SF's improved
    # list pruning reads the least, iNRA sits between, classic NRA reads
    # the most.  This is the telemetry counterpart of the harness-level
    # ordering tests — the counters, not the ledgers, carry the claim.
    assert read["sf"] < read["inra"] < read["nra"], read

    rows = [
        {"algorithm": name, "elements_read": read[name],
         "lists_pruned": abandoned[name]}
        for name in algorithms
    ]
    write_result(
        results_dir, "obs_pruning_order.txt",
        format_table(rows, ["algorithm", "elements_read", "lists_pruned"]),
    )

    if BENCH_JSON.exists():
        record = json.loads(BENCH_JSON.read_text())
        record["elements_read_by_algo"] = read
        record["lists_pruned_by_algo"] = abandoned
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
