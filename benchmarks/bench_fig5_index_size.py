"""Figure 5 — index sizes per competitor, relative to the base table.

The paper reports: all indexes dwarf the data table (3-gram explosion); the
inverted-list family is ~9x the data, SQL ~26x; extendible hashing (needed
only for TA-style random access) is the dominant inverted-list overhead;
skip lists are nearly free.  We regenerate the same decomposition from the
byte model of the storage layer and assert those orderings.  One more row
is real: the bytes ``save_searcher`` writes for the corpus, which pins the
size of the save format.
"""

from __future__ import annotations

import os
import tempfile

from repro.core.search import SetSimilaritySearcher
from repro.storage.invlist import InvertedIndex
from repro.storage.persist import save_searcher
from repro.storage.pages import bytes_human
from repro.relational.sqlbaseline import SqlBaseline
from repro.eval.harness import format_table

from conftest import write_result


def saved_bytes(collection) -> int:
    """Bytes of every file ``save_searcher`` writes for ``collection``."""
    with tempfile.TemporaryDirectory() as directory:
        save_searcher(SetSimilaritySearcher(collection), directory)
        return sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, files in os.walk(directory)
            for name in files
        )


def build_size_report(collection):
    inverted = InvertedIndex(collection)
    sql = SqlBaseline(collection)
    inv_sizes = inverted.size_report()
    sql_sizes = sql.size_report()
    base = sql_sizes["base_table"]
    rows = [
        {"component": "base table (data)", "bytes": base,
         "human": bytes_human(base), "x_data": 1.0},
    ]
    for label, size in [
        ("SQL: q-gram table", sql_sizes["qgram_table"]),
        ("SQL: clustered B-tree", sql_sizes["btree"]),
        ("inverted lists (by weight)", inv_sizes["inverted_lists_by_weight"]),
        ("inverted lists (by id)", inv_sizes["inverted_lists_by_id"]),
        ("skip lists", inv_sizes["skip_lists"]),
        ("extendible hashing", inv_sizes["extendible_hashing"]),
    ]:
        rows.append(
            {
                "component": label,
                "bytes": size,
                "human": bytes_human(size),
                "x_data": round(size / base, 2),
            }
        )
    from repro.storage.compression import compressed_size_report

    compression = compressed_size_report(inverted)
    rows.append(
        {
            "component": "inverted lists (compressed)",
            "bytes": compression["compressed_bytes"],
            "human": bytes_human(compression["compressed_bytes"]),
            "x_data": round(compression["compressed_bytes"] / base, 2),
        }
    )
    saved = saved_bytes(collection)
    rows.append(
        {
            "component": "saved index (save_searcher)",
            "bytes": saved,
            "human": bytes_human(saved),
            "x_data": round(saved / base, 2),
        }
    )
    totals = {
        "sql_total": sql_sizes["qgram_table"] + sql_sizes["btree"],
        "nra_family_total": (
            inv_sizes["inverted_lists_by_weight"] + inv_sizes["skip_lists"]
        ),
        "ta_family_total": (
            inv_sizes["inverted_lists_by_weight"]
            + inv_sizes["skip_lists"]
            + inv_sizes["extendible_hashing"]
        ),
        "sortbyid_total": inv_sizes["inverted_lists_by_id"],
        "compression_ratio": compression["ratio"],
        "base": base,
    }
    return rows, totals


def test_fig5_index_sizes(benchmark, corpus, results_dir):
    collection, _words = corpus
    rows, totals = benchmark.pedantic(
        lambda: build_size_report(collection), rounds=1, iterations=1
    )
    summary = [
        {
            "index": name,
            "human": bytes_human(size),
            "x_data_table": round(size / totals["base"], 2),
        }
        for name, size in totals.items()
        if name not in ("base", "compression_ratio")
    ]
    text = (
        format_table(rows, ["component", "human", "x_data"])
        + "\n\nper-competitor totals:\n"
        + format_table(summary)
    )
    write_result(results_dir, "fig5_index_size.txt", text)

    # Paper shape 1: every index is larger than the data table.
    assert totals["sql_total"] > totals["base"]
    assert totals["nra_family_total"] > totals["base"]
    # Paper shape 2: SQL is the largest footprint overall.
    assert totals["sql_total"] > totals["ta_family_total"]
    # Paper shape 3: extendible hashing dominates skip lists by far.
    by_component = {r["component"]: r["bytes"] for r in rows}
    assert (
        by_component["extendible hashing"] > 5 * by_component["skip lists"]
    )
    # Paper shape 4: skip lists are a small fraction of the lists they index.
    assert (
        by_component["skip lists"]
        < by_component["inverted lists (by weight)"]
    )


def test_benchmark_index_build(benchmark, corpus):
    """Timing anchor: full inverted-index construction."""
    collection, _words = corpus
    benchmark.pedantic(
        lambda: InvertedIndex(collection), rounds=3, iterations=1
    )
