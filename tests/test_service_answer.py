"""The service's one per-query step (``SimilarityService._answer``).

``search`` and every slot of ``search_batch`` are answered by the same
step: a result-cache replay, or a prepare and an execution.  A batch
walks its slots in order; a slot whose key the batch already executed
is coalesced from that answer instead.  These tests pin that rule, the
answers and counters it implies, and the edges around it (an empty
cache, a batch larger than the admission bound).
"""

import ast
import inspect
import json
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    QGramTokenizer,
    ServiceConfig,
    SetCollection,
    SetSimilaritySearcher,
    SimilarityService,
)
from repro.core.errors import ConfigurationError
from repro.faults import use_fault_plan
from repro.obs import metrics as obs_metrics
from repro.service import ServiceHTTPServer
from repro.service import service as service_module

VOCAB = ["a", "b", "c", "d", "e", "f"]
SETS = [
    ["a", "b"],
    ["a", "b", "c"],
    ["b", "c", "d"],
    ["c", "d", "e", "f"],
    ["a", "e"],
    ["f"],
    ["b", "d", "f"],
    ["a", "c", "e"],
]


@pytest.fixture(scope="module")
def searcher():
    return SetSimilaritySearcher(SetCollection.from_token_sets(SETS))


def ids_and_scores(results):
    return [(r.set_id, r.score) for r in results]


def expected_flags(warm, queries, cache_on):
    """``(cached, coalesced, ok)`` per slot under the batch rule."""
    cached = {frozenset(q) for q in warm if q} if cache_on else set()
    executed = set()
    flags = []
    for tokens in queries:
        key = frozenset(tokens)
        if not key:
            flags.append((False, False, False))
        elif key in executed:
            flags.append((False, True, True))
        elif key in cached:
            flags.append((True, False, True))
        else:
            executed.add(key)
            flags.append((False, False, True))
    return flags


queries_st = st.lists(
    st.lists(st.sampled_from(VOCAB), max_size=4), min_size=1, max_size=6
)


class TestBatchIsASequenceOfSearches:
    @settings(max_examples=60, deadline=None)
    @given(
        warm=st.lists(st.lists(st.sampled_from(VOCAB), min_size=1,
                               max_size=3), max_size=3),
        queries=queries_st,
        repeats=st.lists(st.integers(0, 5), max_size=4),
        cache_on=st.booleans(),
        tau=st.sampled_from([0.3, 0.6]),
    )
    def test_slots_equal_lone_searches(
        self, searcher, warm, queries, repeats, cache_on, tau
    ):
        # Random duplicates: repeat some earlier slots at the end.
        queries = queries + [queries[i % len(queries)] for i in repeats]
        config = ServiceConfig(result_cache_size=1024 if cache_on else 0)
        service = SimilarityService(searcher, config=config)
        for tokens in warm:
            service.search(tokens, tau)
        before = service.stats()
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            batch = service.search_batch(queries, tau)
        after = service.stats()

        assert len(batch) == len(queries)
        for tokens, slot in zip(queries, batch):
            if not tokens:
                assert slot.error and slot.results == []
                continue
            lone = searcher.search(tokens, tau, algorithm="sf")
            assert ids_and_scores(slot.results) == \
                ids_and_scores(lone.results)
        flags = [(s.cached, s.coalesced, s.ok) for s in batch]
        assert flags == expected_flags(warm, queries, cache_on)

        answered = sum(ok for _c, _d, ok in flags)
        coalesced = sum(d for _c, d, _ok in flags)
        assert after["queries_served"] - before["queries_served"] == answered
        assert after["coalesced"] - before["coalesced"] == coalesced
        # Every answered slot is one latency observation.
        latency = reg.get("service_request_latency_seconds")
        assert (latency.labels().count if latency else 0) == answered
        if cache_on:
            hits = reg.total("cache_hits_total")
            assert hits == sum(c for c, _d, _ok in flags)

    def test_coalesced_slot_copies_a_degraded_primary(self, searcher):
        config = ServiceConfig(algorithm="nra", result_cache_size=0)
        tokens = ["a", "b"]
        with use_fault_plan("storage.read_page:latency:ms=200:count=1"):
            service = SimilarityService(searcher, config=config)
            primary, duplicate = service.search_batch(
                [tokens, tokens], 0.4, deadline=0.05
            )
        assert primary.degraded and duplicate.degraded
        assert duplicate.coalesced and not primary.coalesced
        assert duplicate.degraded_tau == primary.degraded_tau
        assert duplicate.result is primary.result
        assert duplicate.wall_seconds == primary.wall_seconds
        stats = service.stats()
        assert stats["degraded"] == 2
        assert stats["deadline_misses"] == 1
        assert stats["coalesced"] == 1


class TestOnePerQueryStep:
    """``prepare`` and ``_settle`` are reached from one method."""

    @staticmethod
    def _callers(matches):
        tree = ast.parse(inspect.getsource(service_module))
        (cls,) = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef)
            and node.name == "SimilarityService"
        ]
        found = []
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Call) and matches(node.func):
                    found.append(method.name)
        return found

    def test_prepare_has_one_caller(self):
        def searcher_prepare(func):
            return (
                isinstance(func, ast.Attribute)
                and func.attr == "prepare"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "_searcher"
            )

        assert self._callers(searcher_prepare) == ["_answer"]

    def test_settle_has_one_caller(self):
        def settle(func):
            return isinstance(func, ast.Attribute) and func.attr == "_settle"

        assert self._callers(settle) == ["_answer"]


class TestEmptyCacheStats:
    """An enabled cache reports its counters even while it is empty."""

    def test_fresh_service_reports_an_empty_cache(self, searcher):
        stats = SimilarityService(searcher).stats()["result_cache"]
        assert stats is not None
        assert (stats["size"], stats["hits"], stats["misses"]) == (0, 0, 0)

    def test_invalidate_keeps_the_counters(self, searcher):
        service = SimilarityService(searcher)
        service.search(["a", "b"], 0.5)
        service.search(["a", "b"], 0.5)
        assert service.invalidate() == 1
        stats = service.stats()["result_cache"]
        assert (stats["size"], stats["hits"], stats["misses"]) == (0, 1, 1)


class TestOversizedBatch:
    """A batch that no idle service could admit is a bad request, not
    an overload to retry."""

    def test_rejected_before_admission(self, searcher):
        service = SimilarityService(
            searcher, config=ServiceConfig(max_inflight=2)
        )
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            with pytest.raises(ConfigurationError, match="max_inflight"):
                service.search_batch([["a"], ["b"], ["c"]], 0.5)
            assert reg.get("queries_shed_total") is None
        assert service.stats()["inflight"] == 0
        assert all(r.ok for r in service.search_batch([["a"], ["b"]], 0.5))

    @contextmanager
    def _server(self, max_inflight):
        tokenizer = QGramTokenizer()
        collection = SetCollection.from_strings(
            ["Main Street", "Maine Street", "Elm Avenue"], tokenizer
        )
        service = SimilarityService(
            SetSimilaritySearcher(collection),
            config=ServiceConfig(max_inflight=max_inflight),
            tokenizer=tokenizer,
        )
        with ServiceHTTPServer(service, port=0) as server:
            yield server

    def test_http_answers_400_naming_the_limit(self):
        body = {"queries": ["Main", "Elm", "Maine"], "threshold": 0.5}
        with self._server(max_inflight=2) as server:
            request = urllib.request.Request(
                server.url + "/batch", data=json.dumps(body).encode("utf-8")
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(request, timeout=10)
        assert exc.value.code == 400
        assert exc.value.headers["Retry-After"] is None
        reply = json.loads(exc.value.read())
        assert not reply["ok"]
        assert "max_inflight (2)" in reply["error"]
