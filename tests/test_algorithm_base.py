"""Unit tests for the shared algorithm infrastructure (base module)."""

import pytest

from repro import SetCollection, SetSimilaritySearcher
from repro.algorithms.base import (
    AlgorithmResult,
    QueryLists,
    SearchResult,
    algorithm_names,
    make_algorithm,
    register_algorithm,
)
from repro.core.errors import UnknownAlgorithmError
from repro.storage.pages import IOStats


@pytest.fixture()
def tiny():
    coll = SetCollection.from_token_sets(
        [["a"], ["a", "b"], ["b", "c"], ["c"]]
    )
    return SetSimilaritySearcher(coll)


class TestSearchResult:
    def test_tuple_protocol(self):
        r = SearchResult(3, 0.5)
        set_id, score = r
        assert (set_id, score) == (3, 0.5)

    def test_equality(self):
        assert SearchResult(1, 0.5) == SearchResult(1, 0.5)
        assert SearchResult(1, 0.5) != SearchResult(2, 0.5)


class TestAlgorithmResult:
    def test_results_sorted(self):
        result = AlgorithmResult(
            "x",
            [SearchResult(1, 0.2), SearchResult(2, 0.9)],
            IOStats(),
            elements_total=10,
        )
        assert result.ids() == [2, 1]

    def test_tie_broken_by_id(self):
        result = AlgorithmResult(
            "x",
            [SearchResult(5, 0.5), SearchResult(3, 0.5)],
            IOStats(),
            elements_total=1,
        )
        assert result.ids() == [3, 5]

    def test_pruning_power(self):
        stats = IOStats()
        stats.charge_element(25)
        result = AlgorithmResult("x", [], stats, elements_total=100)
        assert result.pruning_power == pytest.approx(0.75)

    def test_pruning_power_empty_lists(self):
        result = AlgorithmResult("x", [], IOStats(), elements_total=0)
        assert result.pruning_power == 1.0

    def test_pruning_power_overcount_raises_under_invariants(self):
        # The old behavior silently clamped elements_read down to
        # elements_total, masking accounting bugs; with invariants armed
        # an over-counted per-query ledger is now a contract violation.
        # Armed here, not taken from the environment, so the test also
        # holds in a REPRO_CHECK_INVARIANTS=0 run.
        from repro.contracts import ContractViolation, set_invariant_checking

        stats = IOStats()
        stats.charge_element(500)
        result = AlgorithmResult("x", [], stats, elements_total=100)
        previous = set_invariant_checking(True)
        try:
            with pytest.raises(ContractViolation, match="io-accounting"):
                result.pruning_power
        finally:
            set_invariant_checking(previous)

    def test_pruning_power_overcount_clamps_when_disarmed(self):
        from repro.contracts import set_invariant_checking

        stats = IOStats()
        stats.charge_element(500)
        result = AlgorithmResult("x", [], stats, elements_total=100)
        previous = set_invariant_checking(False)
        try:
            assert result.pruning_power == 0.0
        finally:
            set_invariant_checking(previous)


class TestQueryLists:
    def test_skips_empty_lists(self, tiny):
        query = tiny.prepare(["a", "zz-unseen"])
        lists = QueryLists(tiny.index, query, IOStats())
        assert lists.tokens == ["a"]
        assert len(lists) == 1

    def test_elements_total(self, tiny):
        query = tiny.prepare(["a", "b"])
        lists = QueryLists(tiny.index, query, IOStats())
        assert lists.elements_total == tiny.index.list_length(
            "a"
        ) + tiny.index.list_length("b")

    def test_contribution_zero_guard(self, tiny):
        query = tiny.prepare(["a"])
        lists = QueryLists(tiny.index, query, IOStats())
        assert lists.contribution(0, 0.0) == 0.0

    def test_id_order(self, tiny):
        query = tiny.prepare(["a", "b"])
        lists = QueryLists(tiny.index, query, IOStats(), order="id")
        first = lists.cursors[0].peek()
        assert isinstance(first[0], int)  # (id, length) tuples


class TestRegistry:
    def test_known_names(self):
        assert "sf" in algorithm_names()

    def test_make_unknown_raises(self, tiny):
        with pytest.raises(UnknownAlgorithmError) as exc:
            make_algorithm("nope", tiny.index)
        assert "nope" in str(exc.value)
        assert "sf" in str(exc.value)

    def test_register_and_make_custom(self, tiny):
        from repro.algorithms.base import SelectionAlgorithm

        @register_algorithm
        class Trivial(SelectionAlgorithm):
            name = "trivial-test-only"

            def _run(self, lists, tau):
                return [], 0

        try:
            alg = make_algorithm("trivial-test-only", tiny.index)
            result = alg.search(tiny.prepare(["a"]), 0.5)
            assert result.results == []
        finally:
            from repro.algorithms import base as base_module

            base_module._REGISTRY.pop("trivial-test-only", None)


class TestHarnessSqliteSpec:
    def test_sqlite_engine_spec(self, word_database):
        from repro.eval.harness import ExperimentContext

        collection, _words = word_database
        context = ExperimentContext(collection)
        word = collection.payload(0)
        via_sqlite = context.run_query("sqlite", word, 0.8)
        via_sf = context.run_query("sf", word, 0.8)
        assert set(via_sqlite.ids()) == set(via_sf.ids())
