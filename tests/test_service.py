"""Tests for the concurrent query service layer (``repro.service``).

The contract under test, per ``docs/service.md``:

* service answers are bit-identical to direct searcher calls when no
  deadline fires (including cached replays and batches);
* caches invalidate on any index mutation, with no explicit flush;
* a deadline stops the query at its next page entry, and the miss
  degrades to SF at a tightened threshold; the result is *flagged*,
  never silent, and never cached;
* no query starts a thread;
* the HTTP endpoint round-trips all of the above as JSON.
"""

import itertools
import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro import (
    QGramTokenizer,
    ServiceConfig,
    SetCollection,
    SetSimilaritySearcher,
    SimilarityService,
    UpdatableSearcher,
)
from repro.algorithms import algorithm_names
from repro.core.errors import (
    ConfigurationError,
    EmptyQueryError,
    InvalidThresholdError,
    UnknownAlgorithmError,
)
from repro.data.synthetic import generate_word_database
from repro.faults import TransientIOError, use_fault_plan
from repro.obs import metrics as obs_metrics
from repro.service import (
    GenerationLRUCache,
    ServiceHTTPServer,
    result_cache_key,
)

TOKEN_SETS = [
    ["data", "cleaning", "matters"],
    ["data", "cleaning"],
    ["query", "processing"],
    ["set", "similarity", "query", "processing"],
    ["data", "quality", "matters"],
]


@pytest.fixture()
def searcher():
    return SetSimilaritySearcher(SetCollection.from_token_sets(TOKEN_SETS))


@pytest.fixture()
def service(searcher):
    with SimilarityService(searcher) as svc:
        yield svc


def ids_and_scores(results):
    return [(r.set_id, r.score) for r in results]


class TestGenerationLRUCache:
    def test_roundtrip_same_version(self):
        cache = GenerationLRUCache(4)
        cache.put("k", (1,), "value")
        assert cache.get("k", (1,)) == "value"
        assert cache.stats()["hits"] == 1

    def test_version_change_invalidates(self):
        cache = GenerationLRUCache(4)
        cache.put("k", (1,), "stale")
        assert cache.get("k", (2,)) is None
        assert cache.stats()["invalidations"] == 1
        assert cache.stats()["size"] == 0  # the stale entry is evicted

    def test_capacity_evicts_least_recently_used(self):
        cache = GenerationLRUCache(2)
        cache.put("a", (1,), 1)
        cache.put("b", (1,), 2)
        cache.get("a", (1,))  # refresh a
        cache.put("c", (1,), 3)  # evicts b
        assert cache.get("b", (1,)) is None
        assert cache.get("a", (1,)) == 1
        assert cache.get("c", (1,)) == 3

    def test_result_key_ignores_token_order_and_duplicates(self):
        assert result_cache_key(("a", "b", "b"), 0.5, "sf") == \
            result_cache_key(("b", "a"), 0.5, "sf")
        assert result_cache_key(("a",), 0.5, "sf") != \
            result_cache_key(("a",), 0.6, "sf")


class TestServiceConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(degrade_tighten=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(degrade_tighten=1.5)
        with pytest.raises(ConfigurationError):
            ServiceConfig(deadline_seconds=0.0)

    def test_degraded_tau_moves_toward_one(self):
        config = ServiceConfig(degrade_tighten=0.5)
        assert config.degraded_tau(0.6) == pytest.approx(0.8)
        assert config.degraded_tau(1.0) == pytest.approx(1.0)

    def test_backend_type_is_validated(self):
        with pytest.raises(ConfigurationError):
            SimilarityService(object())


class TestSingleQuery:
    def test_bit_identical_to_direct_search(self, searcher, service):
        direct = searcher.search(["data", "cleaning"], 0.4, algorithm="sf")
        served = service.search(["data", "cleaning"], 0.4)
        assert ids_and_scores(served.results) == \
            ids_and_scores(direct.results)
        assert not served.cached and not served.degraded

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_no_deadline_keeps_answers_and_counters(
        self, searcher, algorithm
    ):
        config = ServiceConfig(result_cache_size=0)
        with SimilarityService(searcher, config=config) as svc:
            for tokens in TOKEN_SETS:
                served = svc.search(tokens, 0.3, algorithm=algorithm)
                direct = searcher.search(tokens, 0.3, algorithm=algorithm)
                assert ids_and_scores(served.results) == \
                    ids_and_scores(direct.results)
                assert served.result.stats.snapshot() == \
                    direct.stats.snapshot()

    def test_repeat_is_cached_and_identical(self, service):
        first = service.search(["data", "cleaning"], 0.4)
        second = service.search(["data", "cleaning"], 0.4)
        assert second.cached
        assert ids_and_scores(second.results) == \
            ids_and_scores(first.results)
        assert service.stats()["result_cache"]["hits"] == 1

    def test_cache_distinguishes_threshold_and_algorithm(self, service):
        service.search(["data", "cleaning"], 0.4)
        assert not service.search(["data", "cleaning"], 0.5).cached
        assert not service.search(
            ["data", "cleaning"], 0.4, algorithm="inra"
        ).cached

    def test_empty_query_raises(self, service):
        with pytest.raises(EmptyQueryError):
            service.search([], 0.5)

    def test_caches_can_be_disabled(self, searcher):
        config = ServiceConfig(result_cache_size=0)
        with SimilarityService(searcher, config=config) as svc:
            svc.search(["data", "cleaning"], 0.4)
            assert not svc.search(["data", "cleaning"], 0.4).cached
            assert svc.stats()["result_cache"] is None

    def test_search_text_requires_tokenizer(self, searcher):
        with SimilarityService(searcher) as svc:
            with pytest.raises(ConfigurationError):
                svc.search_text("data cleaning", 0.5)


class TestInvalidation:
    def test_collection_generation_counts_mutations(self):
        collection = SetCollection()
        assert collection.generation == 0
        collection.add(["a", "b"])
        collection.add(["b", "c"])
        assert collection.generation == 2
        collection.freeze()
        with pytest.raises(ConfigurationError):
            collection.add(["d"])
        assert collection.generation == 2  # refused adds don't count

    def test_updatable_insert_invalidates_cache(self):
        updatable = UpdatableSearcher(TOKEN_SETS)
        with SimilarityService(updatable) as service:
            before = service.search(["data", "cleaning"], 0.3)
            assert service.search(["data", "cleaning"], 0.3).cached

            updatable.add(["data", "cleaning", "fresh"])

            after = service.search(["data", "cleaning"], 0.3)
            assert not after.cached  # version changed -> stale entry dropped
            new_id = len(TOKEN_SETS)
            assert new_id in {r.set_id for r in after.results}
            assert new_id not in {r.set_id for r in before.results}
            assert service.stats()["result_cache"]["invalidations"] >= 1

    def test_explicit_invalidate_clears_both_caches(self, service):
        service.search(["data", "cleaning"], 0.4)
        assert service.invalidate() == 1  # the one cached result
        assert not service.search(["data", "cleaning"], 0.4).cached
        assert service.stats()["prepared_cache"] is None


class TestBatch:
    BATCH = [
        ["data", "cleaning"],
        ["query", "processing"],
        ["data", "quality", "matters"],
        ["data", "cleaning"],  # duplicate of slot 0
    ]

    def test_threads_identical_to_sequential(self, searcher, service):
        batch = service.search_batch(self.BATCH, 0.3)
        for tokens, served in zip(self.BATCH, batch):
            direct = searcher.search(tokens, 0.3, algorithm="sf")
            assert ids_and_scores(served.results) == \
                ids_and_scores(direct.results)

    def test_duplicates_coalesce(self, service):
        batch = service.search_batch(self.BATCH, 0.3)
        assert not batch[0].coalesced
        assert batch[3].coalesced
        assert ids_and_scores(batch[3].results) == \
            ids_and_scores(batch[0].results)
        assert service.stats()["coalesced"] == 1

    def test_cache_hits_replay_in_batches(self, service):
        service.search(["data", "cleaning"], 0.3)
        batch = service.search_batch(self.BATCH, 0.3)
        assert batch[0].cached

    def test_every_slot_reports_its_wall_clock(self, service):
        service.search(["data", "cleaning"], 0.3)
        batch = service.search_batch(
            [
                ["data", "cleaning"],  # replayed from the result cache
                ["query", "processing"],  # executed
                ["query", "processing"],  # coalesced into slot 1
            ],
            0.3,
        )
        replay, fresh, duplicate = batch
        assert replay.cached
        assert not fresh.cached and not fresh.coalesced
        assert duplicate.coalesced
        assert all(slot.wall_seconds > 0.0 for slot in batch)
        assert duplicate.wall_seconds == fresh.wall_seconds

    def test_empty_query_becomes_error_slot(self, service):
        batch = service.search_batch([["data"], []], 0.3)
        assert batch[0].ok
        assert not batch[1].ok
        assert batch[1].results == []

    @staticmethod
    def _count_prepares(monkeypatch):
        """Record the tokens of every ``SetSimilaritySearcher.prepare``."""
        calls = []
        real = SetSimilaritySearcher.prepare

        def counting(self, tokens):
            calls.append(list(tokens))
            return real(self, tokens)

        monkeypatch.setattr(SetSimilaritySearcher, "prepare", counting)
        return calls

    def test_all_cached_batch_prepares_nothing(self, service, monkeypatch):
        vocab = sorted({token for tokens in TOKEN_SETS for token in tokens})
        queries = [list(pair) for pair in itertools.combinations(vocab, 2)]
        queries = queries[:16]
        warm = service.search_batch(queries, 0.3)
        calls = self._count_prepares(monkeypatch)
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            batch = service.search_batch(queries, 0.3)
        assert calls == []
        assert all(slot.cached for slot in batch)
        assert [ids_and_scores(s.results) for s in batch] == \
            [ids_and_scores(s.results) for s in warm]
        # One cache lookup per slot, and only the result cache exists.
        assert reg.get("cache_hits_total").labels(cache="result").value == 16
        assert reg.total("cache_hits_total") == 16
        assert reg.total("cache_misses_total") == 0

    def test_mixed_batch_keeps_slot_order_and_flags(
        self, searcher, service, monkeypatch
    ):
        cached = ["data", "cleaning"]
        fresh = ["query", "processing"]
        other = ["data", "quality", "matters"]
        service.search(cached, 0.3)
        calls = self._count_prepares(monkeypatch)
        batch = service.search_batch(
            [cached, fresh, fresh, [], other, cached, []], 0.3
        )
        flags = [(s.cached, s.coalesced, s.ok) for s in batch]
        assert flags == [
            (True, False, True),  # replayed from the result cache
            (False, False, True),  # executed
            (False, True, True),  # coalesced into slot 1
            (False, False, False),  # empty: an error slot
            (False, False, True),  # executed
            (True, False, True),  # replayed again
            (False, False, False),  # empty: an error slot
        ]
        # Only the misses were prepared, each distinct one once.
        assert [tokens for tokens in calls if tokens] == [fresh, other]
        answered = [(0, cached), (1, fresh), (2, fresh), (4, other),
                    (5, cached)]
        for i, tokens in answered:
            direct = searcher.search(tokens, 0.3, algorithm="sf")
            assert ids_and_scores(batch[i].results) == \
                ids_and_scores(direct.results)
        assert service.stats()["coalesced"] == 1


class TestBatchRandomized:
    def test_large_batch_matches_sequential(self):
        collection, _ = generate_word_database(
            num_records=400, vocabulary_size=250, seed=11
        )
        searcher = SetSimilaritySearcher(collection)
        queries = [list(rec.tokens) for rec in collection][:60]
        with SimilarityService(searcher) as service:
            batch = service.search_batch(queries, 0.7)
            for tokens, served in zip(queries, batch):
                direct = searcher.search(tokens, 0.7, algorithm="sf")
                assert [r.set_id for r in served.results] == \
                    [r.set_id for r in direct.results]


class TestUpdatableBatch:
    def test_batch_matches_direct_search_with_pending_sets(self):
        rng = random.Random(7)
        vocab = [f"t{i}" for i in range(30)]
        sets = [rng.sample(vocab, rng.randint(2, 6)) for _ in range(300)]
        updatable = UpdatableSearcher(sets[:240], auto_rebuild_fraction=1.0)
        for tokens in sets[240:]:
            updatable.add(tokens)
        assert updatable.pending == 60
        queries = sets[200:260] * 2
        with SimilarityService(
            updatable, config=ServiceConfig(result_cache_size=0)
        ) as service:
            batch = service.search_batch(queries, 0.6)
        for tokens, got in zip(queries, batch):
            want = updatable.search(tokens, 0.6, algorithm="sf")
            assert ids_and_scores(got.results) == \
                ids_and_scores(want.results)
        assert any(
            r.set_id >= 240 for slot in batch for r in slot.results
        )


class TestRequestValidation:
    """A bad algorithm name or deadline is the caller's error: it is
    rejected on entry and never counts as a backend failure."""

    def test_auto_is_rejected_everywhere(self, searcher, service):
        from repro.cli import build_parser

        with pytest.raises(UnknownAlgorithmError):
            searcher.search(["data"], 0.5, algorithm="auto")
        with pytest.raises(UnknownAlgorithmError):
            service.search(["data"], 0.5, algorithm="auto")
        with pytest.raises(UnknownAlgorithmError):
            service.search_batch([["data"]], 0.5, algorithm="auto")
        with pytest.raises(UnknownAlgorithmError):
            ServiceConfig(algorithm="auto")
        assert service.stats()["breaker_state"] == "closed"
        assert service.stats()["queries_served"] == 0
        for command in (["batch", "--input", "q.txt"], ["serve"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(
                    [*command, "--index", "idx", "--algorithm", "auto"]
                )
            assert exc.value.code == 2

    def test_unknown_algorithm_never_opens_the_breaker(self, service):
        for _ in range(6):
            with pytest.raises(UnknownAlgorithmError):
                service.search(["data", "cleaning"], 0.4, algorithm="bogus")
        with pytest.raises(UnknownAlgorithmError):
            service.search_batch([["data"]], 0.4, algorithm="bogus")
        assert service.search(["data", "cleaning"], 0.4).results
        assert service.stats()["breaker_state"] == "closed"

    @pytest.mark.parametrize("tau", [1.5, 0.0, -0.2, float("nan")])
    def test_bad_threshold_never_opens_the_breaker(self, searcher, tau):
        with SimilarityService(
            searcher, ServiceConfig(breaker_threshold=2)
        ) as service:
            for _ in range(3):
                with pytest.raises(InvalidThresholdError):
                    service.search(["a"], tau)
                with pytest.raises(InvalidThresholdError):
                    service.search_batch([["a"]], tau)
            assert service.search(["data", "cleaning"], 0.5).results
            stats = service.stats()
            assert stats["breaker_state"] == "closed"
            assert stats["queries_served"] == 1

    @pytest.mark.parametrize("deadline", [0.0, -0.005, float("nan")])
    def test_nonpositive_deadline_rejected(self, service, deadline):
        with pytest.raises(ConfigurationError, match="deadline"):
            service.search(["data"], 0.4, deadline=deadline)
        with pytest.raises(ConfigurationError, match="deadline"):
            service.search_batch([["data"]], 0.4, deadline=deadline)
        stats = service.stats()
        assert stats["queries_served"] == 0
        assert stats["degraded"] == stats["deadline_misses"] == 0


#: The first page read sleeps far past every deadline used below, so the
#: primary stops at that page entry; the fallback then reads at full
#: speed (the rule is spent).
SLOW_FIRST_PAGE = "storage.read_page:latency:ms=200:count=1"


class TestDeadline:
    @staticmethod
    @contextmanager
    def _slow_service(searcher, spec=SLOW_FIRST_PAGE, **overrides):
        """A service running ``nra`` under the latency plan ``spec``."""
        config = ServiceConfig(algorithm="nra", **overrides)
        with use_fault_plan(spec), SimilarityService(
            searcher, config=config
        ) as service:
            yield service

    def test_deadline_miss_degrades_and_flags(self, searcher):
        with self._slow_service(searcher) as service:
            result = service.search(["data", "cleaning"], 0.4, deadline=0.05)
        assert result.degraded
        assert result.degraded_tau == pytest.approx(
            service.config.degraded_tau(0.4)
        )
        assert result.ok  # degraded is not an error
        stats = service.stats()
        assert stats["degraded"] == 1
        assert stats["deadline_misses"] == 1

    def test_mid_query_expiry_equals_sf_at_degraded_tau(self, searcher):
        tokens = ["data", "cleaning"]
        # The first page read is fast, the second sleeps: the deadline
        # passes after the primary has started reading.
        spec = "storage.read_page:latency:ms=200:after=1:count=1"
        with self._slow_service(searcher, spec) as service:
            result = service.search(tokens, 0.4, deadline=0.05)
        assert result.degraded and result.ok
        want = searcher.search(tokens, result.degraded_tau, "sf")
        assert ids_and_scores(result.results) == \
            ids_and_scores(want.results)

    def test_degraded_answers_are_subset_at_tightened_tau(self, searcher):
        with self._slow_service(searcher) as service:
            degraded = service.search(
                ["data", "cleaning"], 0.4, deadline=0.05
            )
        exact = searcher.search(["data", "cleaning"], 0.4, algorithm="sf")
        exact_ids = {r.set_id for r in exact.results}
        for r in degraded.results:
            assert r.set_id in exact_ids
            assert r.score >= degraded.degraded_tau - 1e-9

    def test_degraded_result_never_cached(self, searcher):
        with self._slow_service(searcher) as service:
            service.search(["data", "cleaning"], 0.4, deadline=0.05)
            # Without a deadline the primary runs to completion; the
            # answer must be freshly computed, not a degraded replay.
            follow_up = service.search(["data", "cleaning"], 0.4)
        assert not follow_up.cached
        assert not follow_up.degraded

    def test_no_thread_outlives_a_call(self, searcher):
        before = threading.active_count()
        with self._slow_service(searcher) as service:
            assert service.search(
                ["data", "cleaning"], 0.4, deadline=0.05
            ).degraded
            assert threading.active_count() == before
            batch = service.search_batch(
                [["data"], ["query", "processing"]], 0.4, deadline=0.05
            )
            assert all(r.ok for r in batch)
            assert threading.active_count() == before

    def test_half_open_probe_deadline_miss_degrades(self, searcher):
        with self._slow_service(
            searcher,
            breaker_threshold=1,
            breaker_reset_seconds=0.05,
            retry_attempts=1,
        ) as service:
            with use_fault_plan("service.execute:transient:count=1"):
                with pytest.raises(TransientIOError):
                    service.search(["query", "processing"], 0.4)
            assert service.stats()["breaker_state"] == "open"
            time.sleep(0.1)  # past the reset: the next call is the probe
            with use_fault_plan(SLOW_FIRST_PAGE) as plan:
                result = service.search(
                    ["data", "cleaning"], 0.4, deadline=0.05
                )
            assert plan.injected_total() == 1
            assert result.degraded and result.ok
            assert service.stats()["breaker_state"] == "closed"

    def test_deadline_misses_neither_retry_nor_open_breaker(self, searcher):
        threshold = 3
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            with SimilarityService(
                searcher,
                config=ServiceConfig(
                    algorithm="nra", breaker_threshold=threshold
                ),
            ) as service:
                for _ in range(threshold):
                    with use_fault_plan(SLOW_FIRST_PAGE):
                        assert service.search(
                            ["data", "cleaning"], 0.4, deadline=0.05
                        ).degraded
                stats = service.stats()
            assert stats["deadline_misses"] == threshold
            assert stats["breaker_state"] == "closed"
            assert reg.total("retries_total") == 0


class TestConcurrentUse:
    def test_parallel_searches_match_sequential(self, searcher):
        queries = [list(rec.tokens) for rec in searcher.collection]
        expected = [
            ids_and_scores(searcher.search(q, 0.5, algorithm="sf").results)
            for q in queries
        ]
        with SimilarityService(searcher) as service:
            got = [None] * len(queries)
            errors = []

            def worker(i):
                try:
                    res = service.search(queries[i], 0.5)
                    got[i] = ids_and_scores(res.results)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert got == expected


class TestServiceMetrics:
    def test_cache_hit_and_miss_counters(self, service):
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            service.search(["data", "cleaning"], 0.5)
            service.search(["data", "cleaning"], 0.5)
            hits = reg.get("cache_hits_total")
            misses = reg.get("cache_misses_total")
            assert hits.labels(cache="result").value == 1
            assert misses.labels(cache="result").value == 1
            assert reg.total("service_queries_total") == 2
            latency = reg.get("service_request_latency_seconds")
            # Cache hits are observed too — the histogram covers every
            # answered request, not just index executions.
            assert latency.labels().count == 2

    def test_deadline_degradation_counters(self, searcher):
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            with TestDeadline._slow_service(searcher) as service:
                result = service.search(
                    ["data", "cleaning"], 0.4, deadline=0.05
                )
            assert result.degraded
            assert reg.total("deadline_degradations_total") == 1
            assert reg.total("deadline_misses_total") == 1

    def test_disabled_registry_stays_empty(self, service):
        service.search(["data", "cleaning"], 0.5)
        assert obs_metrics.get_registry().snapshot() == {}


class TestHTTPServer:
    @pytest.fixture()
    def server(self):
        tokenizer = QGramTokenizer()
        collection = SetCollection.from_strings(
            ["Main Street", "Maine Street", "Elm Avenue"], tokenizer
        )
        service = SimilarityService(
            SetSimilaritySearcher(collection), tokenizer=tokenizer
        )
        with ServiceHTTPServer(service, port=0) as server:
            yield server
        service.close()

    @staticmethod
    def _post(url, body):
        request = urllib.request.Request(
            url, data=json.dumps(body).encode("utf-8")
        )
        with urllib.request.urlopen(request, timeout=10) as resp:
            return json.loads(resp.read())

    @staticmethod
    def _get(url):
        with urllib.request.urlopen(url, timeout=10) as resp:
            return json.loads(resp.read())

    def test_healthz(self, server):
        assert self._get(server.url + "/healthz") == {"ok": True}

    def test_search_by_text(self, server):
        body = self._post(
            server.url + "/search",
            {"text": "Main Stret", "threshold": 0.5},
        )
        assert body["ok"] and not body["degraded"]
        assert body["results"][0]["payload"] == "Main Street"

    def test_search_by_tokens_and_cache_flag(self, server):
        tokens = server.service.tokenizer.tokens("Elm Avenue")
        request = {"tokens": tokens, "threshold": 0.5}
        first = self._post(server.url + "/search", request)
        second = self._post(server.url + "/search", request)
        assert not first["cached"] and second["cached"]
        assert first["results"] == second["results"]

    def test_batch_mixed_queries(self, server):
        body = self._post(
            server.url + "/batch",
            {
                "queries": ["Main Street", "Elm Avenu", "Main Street"],
                "threshold": 0.5,
            },
        )
        assert body["ok"]
        assert len(body["results"]) == 3
        assert body["results"][0]["results"] == \
            body["results"][2]["results"]

    def test_stats_endpoint(self, server):
        self._post(
            server.url + "/search", {"text": "Main", "threshold": 0.5}
        )
        stats = self._get(server.url + "/stats")
        assert stats["queries_served"] >= 1

    def test_bad_request_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/search", data=b'{"threshold": 0.5}'
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10)
        assert exc.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        assert exc.value.code == 404

    def test_unknown_algorithm_is_400_and_breaker_stays_closed(
        self, server
    ):
        for _ in range(5):
            with pytest.raises(urllib.error.HTTPError) as exc:
                self._post(
                    server.url + "/search",
                    {"text": "Main", "threshold": 0.5, "algorithm": "bogus"},
                )
            assert exc.value.code == 400
            assert "bogus" in json.loads(exc.value.read())["error"]
        body = self._post(
            server.url + "/search", {"text": "Main Stret", "threshold": 0.5}
        )
        assert body["ok"] and body["results"]
        assert self._get(server.url + "/stats")["breaker_state"] == "closed"

    def test_bad_threshold_is_400_and_breaker_stays_closed(self):
        tokenizer = QGramTokenizer()
        collection = SetCollection.from_strings(["Main Street"], tokenizer)
        with SimilarityService(
            SetSimilaritySearcher(collection),
            ServiceConfig(breaker_threshold=2),
            tokenizer=tokenizer,
        ) as service, ServiceHTTPServer(service, port=0) as server:
            for _ in range(3):
                with pytest.raises(urllib.error.HTTPError) as exc:
                    self._post(
                        server.url + "/search",
                        {"text": "Main", "threshold": 1.5},
                    )
                assert exc.value.code == 400
                assert "1.5" in json.loads(exc.value.read())["error"]
            body = self._post(
                server.url + "/search",
                {"text": "Main Stret", "threshold": 0.5},
            )
            assert body["ok"] and body["results"]
            stats = self._get(server.url + "/stats")
            assert stats["breaker_state"] == "closed"

    def test_idle_keep_alive_connection_is_closed(self, server, monkeypatch):
        from repro.service import httpd

        handler = httpd._ServiceRequestHandler
        assert handler.timeout == httpd.IDLE_TIMEOUT_SECONDS > 0
        monkeypatch.setattr(handler, "timeout", 0.3)
        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as conn:
            conn.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
            )
            received = b""
            # The server answers, then closes the idle connection: recv
            # reaches EOF instead of waiting out the client timeout.
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                received += chunk
        assert received.startswith(b"HTTP/1.1 200")

    def test_metrics_endpoint_scrapes_prometheus_text(self, server):
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()):
            self._post(
                server.url + "/search",
                {"text": "Main Stret", "threshold": 0.5},
            )
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=10
            ) as resp:
                content_type = resp.headers["Content-Type"]
                text = resp.read().decode("utf-8")
        assert content_type == obs_metrics.PROMETHEUS_CONTENT_TYPE
        # The documented families, in valid exposition shape: HELP/TYPE
        # headers, labeled counters, cumulative histogram buckets.
        assert "# TYPE queries_total counter" in text
        assert 'elements_read_total{algo="sf"}' in text
        assert 'query_latency_seconds_bucket{algo="sf",le="+Inf"} 1' in text
        assert "service_request_latency_seconds_count 1" in text
        assert 'http_requests_total{path="/search"}' in text

    def test_metrics_endpoint_empty_when_disabled(self, server):
        with urllib.request.urlopen(
            server.url + "/metrics", timeout=10
        ) as resp:
            assert resp.status == 200
            assert resp.read() == b""


class TestHTTPResilience:
    """The failure-path HTTP contract: 503 when shedding, JSON 500 on
    unexpected handler errors — never a raw traceback on the socket."""

    @pytest.fixture()
    def server(self):
        tokenizer = QGramTokenizer()
        collection = SetCollection.from_strings(
            ["Main Street", "Maine Street", "Elm Avenue"], tokenizer
        )
        service = SimilarityService(
            SetSimilaritySearcher(collection), tokenizer=tokenizer
        )
        with ServiceHTTPServer(service, port=0) as server:
            yield server
        service.close()

    @staticmethod
    def _post_raw(url, body):
        request = urllib.request.Request(
            url, data=json.dumps(body).encode("utf-8")
        )
        return urllib.request.urlopen(request, timeout=10)

    def test_draining_service_returns_503_with_retry_after(self, server):
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            server.service.drain(timeout=5.0)
            with pytest.raises(urllib.error.HTTPError) as exc:
                self._post_raw(
                    server.url + "/search",
                    {"text": "Main", "threshold": 0.5},
                )
            assert exc.value.code == 503
            assert exc.value.headers["Retry-After"] == "5"
            body = json.loads(exc.value.read())
            assert body["overloaded"] and not body["ok"]
            errors = reg.get("http_errors_total")
            assert errors.labels(status="503").value == 1
            shed = reg.get("queries_shed_total")
            assert shed.labels(reason="draining").value == 1

    def test_unexpected_error_returns_json_500(self, server):
        def explode(*_args, **_kwargs):
            raise RuntimeError("wiring gone bad")

        server.service.search = explode
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            with pytest.raises(urllib.error.HTTPError) as exc:
                self._post_raw(
                    server.url + "/search",
                    {"text": "Main", "threshold": 0.5},
                )
            assert exc.value.code == 500
            body = json.loads(exc.value.read())
            # The type is surfaced, the message is withheld.
            assert body["error"] == "internal error (RuntimeError)"
            assert "wiring" not in json.dumps(body)
            errors = reg.get("http_errors_total")
            assert errors.labels(status="500").value == 1

    def test_resumed_service_serves_again(self, server):
        server.service.drain(timeout=5.0)
        server.service._admission.resume()
        body = TestHTTPServer._post(
            server.url + "/search", {"text": "Main", "threshold": 0.5}
        )
        assert body["ok"]
