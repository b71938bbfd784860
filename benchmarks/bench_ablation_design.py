"""Ablations of the design choices DESIGN.md calls out.

1. Candidate-set organization (Section VII): Hybrid's partitioned per-list
   candidate lists vs. iNRA's flat hash scans — measured via the
   candidate-scan counter and wall-clock.
2. iNRA's bookkeeping reducers (Section V): lazy candidate scans (skip the
   scan while F >= tau, stop at the first viable candidate) vs. textbook
   per-round full scans.
3. Skip-list stride: exact (stride 1) vs. sparse (the default 16) — the
   space/seek-precision trade behind the paper's 10 MB cap.
"""

from __future__ import annotations


from repro.data.workloads import make_workload
from repro.eval.harness import format_table

from conftest import write_result


def run_candidate_org(context, num_queries):
    workload = make_workload(
        context.collection, (11, 15), num_queries, modifications=0, seed=77
    )
    rows = []
    for spec, label in [
        ("inra", "iNRA (hash scans, lazy)"),
        ("hybrid", "Hybrid (partitioned, full scans)"),
    ]:
        s = context.run_workload(spec, workload, 0.8)
        rows.append(
            {
                "organization": label,
                "avg_candidate_scans": round(
                    sum(r.stats.candidate_scans for r in s.per_query)
                    / len(s.per_query),
                    1,
                ),
                "avg_elems_read": round(s.avg_elements_read, 1),
                "avg_wall_ms": round(s.avg_wall_seconds * 1000, 3),
            }
        )
    return rows


def test_candidate_set_organization(benchmark, context, num_queries, results_dir):
    rows = benchmark.pedantic(
        lambda: run_candidate_org(context, num_queries), rounds=1, iterations=1
    )
    write_result(
        results_dir, "ablation_candidate_org.txt", format_table(rows)
    )
    inra, hybrid = rows
    # Hybrid's tighter stop condition never reads more elements.
    assert hybrid["avg_elems_read"] <= inra["avg_elems_read"]


def run_lazy_scans(context, num_queries):
    workload = make_workload(
        context.collection, (11, 15), num_queries, modifications=0, seed=77
    )
    rows = []
    for lazy in (True, False):
        per_query = []
        for q in workload:
            query = context.prepare(q)
            from repro.algorithms import make_algorithm

            alg = make_algorithm("inra", context.searcher.index, lazy_scans=lazy)
            per_query.append(alg.search(query, 0.8))
        rows.append(
            {
                "mode": "lazy scans" if lazy else "textbook scans",
                "avg_candidate_scans": round(
                    sum(r.stats.candidate_scans for r in per_query)
                    / len(per_query),
                    1,
                ),
                "avg_elems_read": round(
                    sum(r.stats.elements_read for r in per_query)
                    / len(per_query),
                    1,
                ),
                "answers": sum(len(r) for r in per_query),
            }
        )
    return rows


def test_inra_lazy_scan_optimization(benchmark, context, num_queries, results_dir):
    rows = benchmark.pedantic(
        lambda: run_lazy_scans(context, num_queries), rounds=1, iterations=1
    )
    write_result(results_dir, "ablation_inra_lazy.txt", format_table(rows))
    lazy, textbook = rows
    # Same answers, far less bookkeeping.
    assert lazy["answers"] == textbook["answers"]
    assert lazy["avg_candidate_scans"] < textbook["avg_candidate_scans"]


def run_stride(context, num_queries):
    from repro.storage.invlist import InvertedIndex

    workload = make_workload(
        context.collection, (11, 15), num_queries, modifications=0, seed=77
    )
    rows = []
    for stride in (1, 4, 16, 64):
        index = InvertedIndex(context.collection, skiplist_stride=stride)
        from repro.algorithms import make_algorithm

        elems = 0
        jumps = 0
        for q in workload:
            query = context.prepare(q)
            alg = make_algorithm("sf", index)
            r = alg.search(query, 0.9)
            elems += r.stats.elements_read
            jumps += r.stats.skip_jumps
        rows.append(
            {
                "stride": stride,
                "skiplist_bytes": index.size_report()["skip_lists"],
                "avg_elems_read": round(elems / len(workload), 1),
                "avg_skip_jumps": round(jumps / len(workload), 1),
            }
        )
    return rows


def test_skiplist_stride_tradeoff(benchmark, context, num_queries, results_dir):
    rows = benchmark.pedantic(
        lambda: run_stride(context, num_queries), rounds=1, iterations=1
    )
    write_result(
        results_dir, "ablation_skiplist_stride.txt", format_table(rows)
    )
    by_stride = {r["stride"]: r for r in rows}
    # Space shrinks with stride; element overhead grows (landing tail).
    assert (
        by_stride[64]["skiplist_bytes"] < by_stride[1]["skiplist_bytes"]
    )
    assert (
        by_stride[1]["avg_elems_read"] <= by_stride[64]["avg_elems_read"]
    )
