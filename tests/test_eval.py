"""Tests for evaluation metrics and the experiment harness."""

import pytest

from repro.core.collection import SetCollection
from repro.core.similarity import IdfMeasure
from repro.data.workloads import make_workload
from repro.eval.harness import (
    ExperimentContext,
    format_table,
    parse_engine_spec,
)
from repro.eval.metrics import (
    MeasureRanker,
    average_precision,
    mean,
    percentile,
    precision_at_k,
    recall_at_k,
    reciprocal_rank,
)


class TestRankingMetrics:
    def test_perfect_ranking(self):
        assert average_precision([1, 2, 3], {1, 2}) == pytest.approx(1.0)

    def test_relevant_late(self):
        # single relevant at rank 3 -> AP = 1/3
        assert average_precision([9, 8, 1], {1}) == pytest.approx(1 / 3)

    def test_mixed(self):
        # relevant at ranks 1 and 3: (1/1 + 2/3)/2
        ap = average_precision([1, 9, 2], {1, 2})
        assert ap == pytest.approx((1.0 + 2 / 3) / 2)

    def test_never_retrieved(self):
        assert average_precision([5, 6], {1}) == 0.0

    def test_no_relevant_is_one(self):
        assert average_precision([1, 2], set()) == 1.0

    def test_precision_at_k(self):
        assert precision_at_k([1, 9, 2], {1, 2}, 2) == pytest.approx(0.5)
        assert precision_at_k([], {1}, 3) == 0.0
        assert precision_at_k([1], {1}, 0) == 0.0

    def test_recall_at_k(self):
        assert recall_at_k([1, 9, 2], {1, 2}, 3) == pytest.approx(1.0)
        assert recall_at_k([9], {1}, 1) == 0.0
        assert recall_at_k([], set(), 5) == 1.0

    def test_reciprocal_rank(self):
        assert reciprocal_rank([9, 1], {1}) == pytest.approx(0.5)
        assert reciprocal_rank([9], {1}) == 0.0

    def test_pair_metrics_perfect(self):
        from repro.eval.metrics import pair_metrics

        m = pair_metrics([(1, 2), (3, 4)], [(2, 1), (4, 3)])
        assert m["precision"] == m["recall"] == m["f1"] == 1.0

    def test_pair_metrics_partial(self):
        from repro.eval.metrics import pair_metrics

        m = pair_metrics([(1, 2), (5, 6)], [(1, 2), (3, 4)])
        assert m["precision"] == pytest.approx(0.5)
        assert m["recall"] == pytest.approx(0.5)
        assert m["f1"] == pytest.approx(0.5)

    def test_pair_metrics_empty(self):
        from repro.eval.metrics import pair_metrics

        m = pair_metrics([], [])
        assert m["precision"] == m["recall"] == 1.0
        m = pair_metrics([(1, 2)], [])
        assert m["precision"] == 0.0 and m["recall"] == 1.0

    def test_mean_and_percentile(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0
        assert percentile([], 0.9) == 0.0


class TestMeasureRanker:
    @pytest.fixture()
    def coll(self):
        return SetCollection.from_token_sets(
            [["a", "b"], ["a", "b", "c"], ["x", "y"], ["a"]]
        )

    def test_candidates_overlap_only(self, coll):
        ranker = MeasureRanker(coll)
        assert ranker.candidates(["a"]) == {0, 1, 3}
        assert ranker.candidates(["zzz"]) == set()

    def test_rank_best_first(self, coll):
        ranker = MeasureRanker(coll)
        ranked = ranker.rank(["a", "b"], IdfMeasure(coll.stats))
        ids = [sid for sid, _ in ranked]
        assert ids[0] == 0  # exact match first
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_exclude(self, coll):
        ranker = MeasureRanker(coll)
        ranked = ranker.rank(
            ["a", "b"], IdfMeasure(coll.stats), exclude={0}
        )
        assert 0 not in [sid for sid, _ in ranked]

    def test_limit(self, coll):
        ranker = MeasureRanker(coll)
        assert len(ranker.rank(["a"], IdfMeasure(coll.stats), limit=2)) == 2


class TestEngineSpecs:
    def test_plain(self):
        assert parse_engine_spec("sf") == ("sf", {})

    def test_nlb(self):
        name, opts = parse_engine_spec("inra-nlb")
        assert name == "inra"
        assert opts == {"use_length_bounds": False}

    def test_nsl(self):
        name, opts = parse_engine_spec("sf-nsl")
        assert opts == {"use_skip_lists": False}

    def test_both_suffixes(self):
        name, opts = parse_engine_spec("sf-nlb-nsl")
        assert name == "sf"
        assert opts == {
            "use_length_bounds": False,
            "use_skip_lists": False,
        }

    def test_sql(self):
        assert parse_engine_spec("sql-nlb") == (
            "sql", {"use_length_bounds": False},
        )


@pytest.fixture(scope="module")
def context(word_database):
    collection, _words = word_database
    return ExperimentContext(collection)


class TestHarness:
    def test_run_query_all_engines(self, context):
        word = context.collection.payload(0)
        for spec in ["sf", "inra", "sql", "sql-nlb", "sort-by-id", "sf-nsl"]:
            result = context.run_query(spec, word, 0.8)
            assert result is not None
            assert 0 in result.ids()  # exact match always found

    def test_engines_agree(self, context):
        word = context.collection.payload(5)
        ref = None
        for spec in ["sf", "hybrid", "inra", "ita", "ta", "nra", "sql"]:
            got = {
                (r.set_id, round(r.score, 9))
                for r in context.run_query(spec, word, 0.7).results
            }
            if ref is None:
                ref = got
            assert got == ref, spec

    def test_empty_query_returns_none(self, context):
        assert context.run_query("sf", "", 0.8) is None

    def test_run_workload_aggregates(self, context):
        wl = make_workload(context.collection, (6, 10), count=5, seed=1)
        summary = context.run_workload("sf", wl, 0.8)
        assert len(summary.per_query) == 5
        assert summary.avg_results >= 1.0  # exact matches exist
        assert 0.0 <= summary.avg_pruning_power <= 1.0
        row = summary.row()
        assert row["engine"] == "sf"
        assert row["queries"] == 5

    def test_run_workload_attaches_metrics_snapshot(self, context):
        from repro.obs import metrics as obs_metrics

        wl = make_workload(context.collection, (6, 10), count=3, seed=4)
        # Disabled (the default): no snapshot rides on the summary.
        assert context.run_workload("sf", wl, 0.8).metrics_snapshot is None
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()):
            summary = context.run_workload("sf", wl, 0.8)
        snap = summary.metrics_snapshot
        assert snap is not None
        assert snap["queries_total"]['algo="sf"'] == 3

    def test_sweep_cross_product(self, context):
        wl = make_workload(context.collection, (6, 10), count=3, seed=2)
        out = context.sweep(["sf", "inra"], [wl], [0.7, 0.9])
        assert len(out) == 4

    def test_format_table(self):
        rows = [
            {"a": 1, "b": "xx"},
            {"a": 22, "b": "y"},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "22" in lines[3]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_rows_to_csv(self, context, tmp_path):
        from repro.eval.harness import rows_to_csv

        wl = make_workload(context.collection, (6, 10), count=3, seed=9)
        rows = [context.run_workload("sf", wl, 0.8).row()]
        path = tmp_path / "rows.csv"
        n = rows_to_csv(rows, path)
        assert n == 1
        import csv

        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert parsed[0]["engine"] == "sf"
        assert float(parsed[0]["queries"]) == 3

    def test_latency_percentiles(self, context):
        wl = make_workload(context.collection, (6, 10), count=5, seed=9)
        summary = context.run_workload("sf", wl, 0.8)
        p50 = summary.latency_percentile(0.5)
        p95 = summary.latency_percentile(0.95)
        assert 0.0 < p50 <= p95
        assert summary.row()["p95_wall_ms"] >= 0
