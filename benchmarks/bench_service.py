"""Service layer — batched throughput, cache hits, degradation.

Measures the serving claims of ``docs/service.md`` on the Figure 6
corpus and workload and records them in ``BENCH_service.json``:

* **batched >= 2x sequential** on a served-traffic replay of the
  default workload (``make_traffic``: shuffled repeats — the arrival
  pattern caching and in-batch coalescing exist for), with per-slot
  result sets asserted identical to direct sequential execution;
* **result-cache hit >= 10x faster** than executing the same query;
* a deadline turns a slow query into a flagged degraded answer instead
  of a blown budget: it stops the query at its next page entry or hash
  probe, in the calling thread.

Wall-clock ratios here compare identical Python executing identical
index operations, so they transfer — unlike cross-algorithm wall-clock,
which the other benchmarks treat as secondary to the I/O model.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro import ServiceConfig, SimilarityService
from repro.data.workloads import make_traffic
from repro.eval.harness import format_table
from repro.faults import use_fault_plan

from conftest import write_result

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_service.json"

TAU = 0.8
TRAFFIC_REPEAT = 4


def _tokens_of(context, texts):
    tokenizer = context.tokenizer
    return [tokenizer.tokens(text) for text in texts]


def _sequential(searcher, token_lists, tau):
    started = time.perf_counter()
    results = [
        searcher.search(tokens, tau, algorithm="sf")
        for tokens in token_lists
    ]
    return results, time.perf_counter() - started


def test_service_throughput_and_caching(benchmark, context, default_workload,
                                        results_dir):
    searcher = context.searcher
    traffic = make_traffic(default_workload, repeat=TRAFFIC_REPEAT, seed=13)
    token_lists = _tokens_of(context, traffic)

    direct, sequential_s = _sequential(searcher, token_lists, TAU)

    def batched():
        with SimilarityService(searcher) as service:
            started = time.perf_counter()
            batch = service.search_batch(token_lists, TAU)
            return service, batch, time.perf_counter() - started

    service, batch, batched_s = benchmark.pedantic(
        batched, rounds=1, iterations=1
    )

    # Identical result sets, slot by slot: caching and coalescing must
    # not change a single answer.
    for served, exact in zip(batch, direct):
        assert not served.degraded
        assert [(r.set_id, r.score) for r in served.results] == \
            [(r.set_id, r.score) for r in exact.results]

    served_from_memory = sum(
        1 for r in batch if r.cached or r.coalesced
    )
    speedup = sequential_s / batched_s
    stats = service.stats()

    # Cache-hit latency: the same query answered cold (index execution)
    # vs. warm (result-cache replay), medians over the workload.
    with SimilarityService(searcher) as hot:
        cold_s, warm_s = [], []
        for tokens in _tokens_of(context, default_workload):
            t0 = time.perf_counter()
            first = hot.search(tokens, TAU)
            t1 = time.perf_counter()
            again = hot.search(tokens, TAU)
            t2 = time.perf_counter()
            assert not first.cached and again.cached
            cold_s.append(t1 - t0)
            warm_s.append(t2 - t1)
    cache_speedup = statistics.median(cold_s) / statistics.median(warm_s)

    record = {
        "corpus_records": len(context.collection),
        "workload_queries": len(default_workload),
        "traffic_queries": len(traffic),
        "tau": TAU,
        "sequential_seconds": round(sequential_s, 6),
        "batched_seconds": round(batched_s, 6),
        "batched_speedup": round(speedup, 3),
        "served_from_memory": served_from_memory,
        "coalesced": stats["coalesced"],
        "result_cache": stats["result_cache"],
        "cache_hit_cold_ms": round(statistics.median(cold_s) * 1e3, 4),
        "cache_hit_warm_ms": round(statistics.median(warm_s) * 1e3, 4),
        "cache_hit_speedup": round(cache_speedup, 1),
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    rows = [
        {"mode": "sequential", "seconds": f"{sequential_s:.4f}",
         "speedup": "1.00", "from_memory": 0},
        {"mode": "service-batch", "seconds": f"{batched_s:.4f}",
         "speedup": f"{speedup:.2f}", "from_memory": served_from_memory},
    ]
    write_result(
        results_dir, "service_throughput.txt",
        format_table(rows, ["mode", "seconds", "speedup", "from_memory"]),
    )

    # The acceptance bars (see ISSUE/docs): 2x batched, 10x cache hits.
    assert speedup >= 2.0, record
    assert cache_speedup >= 10.0, record


def test_deadline_degrades_instead_of_blocking(context, default_workload):
    # Every hash probe stalls 2 ms, so TA's ~300 probes on this query
    # would take over 0.5 s; the SF fallback never probes a hash index,
    # so the stall slows only the primary, which the deadline stops at
    # its next probe.
    tokens = _tokens_of(context, default_workload)[0]
    with use_fault_plan("storage.hash_probe:latency:ms=2"), \
            SimilarityService(
                context.searcher, config=ServiceConfig(algorithm="ta")
            ) as service:
        started = time.perf_counter()
        result = service.search(tokens, TAU, deadline=0.05)
        elapsed = time.perf_counter() - started
    assert result.degraded and result.ok
    assert result.degraded_tau > TAU
    assert elapsed < 0.5  # answered before the primary would have

    if BENCH_JSON.exists():
        record = json.loads(BENCH_JSON.read_text())
        record["deadline_response_seconds"] = round(elapsed, 4)
        record["deadline_degraded_tau"] = result.degraded_tau
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
