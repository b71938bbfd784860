"""The three workloads.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome`.  Timed regions cover only the calls into the program;
query generation, answer checking and counter bookkeeping run outside
them.  With ``ctx.trace`` a workload runs a shorter schedule twice, once
plain and once under :func:`perfbench.spans.traced`, and reports the
per-layer metrics of the traced pass plus the tracing overhead.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.updatable import UpdatableSearcher
from repro.core.weights import IdfStatistics
from repro.data.errors import apply_modifications
from repro.service import ServiceConfig, SimilarityService
from repro.service.httpd import ServiceHTTPServer

from .corpus import TOKENIZER, Setup, fresh_words, query_stream, take
from .oracle import BruteForce, matches
from .spans import SpanRecorder, traced

TAU = 0.8
ALGORITHMS = ("sf", "inra", "hybrid")
MIN_PASSES = 3

#: (records, vocabulary, set-ups per run) of the two corpora, by smoke
#: mode; the smaller corpus repeats its cheaper set-up more often.
LARGE = {False: (32000, 16000, 3), True: (1500, 750, 1)}
SMALL = {False: (4000, 2000, 5), True: (600, 300, 1)}


class Context:
    def __init__(
        self, seed: int, seconds: float, trace: bool, smoke: bool,
        workdir: Path,
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.workdir = workdir

    def size(self, full: int, smoke: int) -> int:
        return smoke if self.smoke else full

    def setups(
        self, corpus: Dict[bool, tuple], name: str, make_serving=None
    ) -> List[Setup]:
        """Repeat the timed set-up; only the last one's objects are kept."""
        records, vocabulary, repeats = corpus[self.smoke]
        out = []
        directory = self.workdir / f"{name}-index"
        for _ in range(repeats):
            if out:
                out[-1].searcher = None
            shutil.rmtree(directory, ignore_errors=True)
            gc.collect()
            out.append(Setup(records, vocabulary, directory, make_serving))
            shutil.rmtree(directory, ignore_errors=True)
        return out


class Outcome:
    """What one run measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        #: Extra figures printed in the report but not in the result line.
        self.report: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.first_error: Optional[str] = None
        self.recorder: Optional[SpanRecorder] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = message


# ----------------------------------------------------------------------
# shared bookkeeping
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def setup_metrics(out: Outcome, setups: List[Setup]) -> None:
    last = setups[-1]
    out.metrics.update(
        setup_s=statistics.median(s.setup_s for s in setups),
        disk_bytes_per_posting=last.disk_bytes / last.postings,
        **{
            "storage.build_s": statistics.median(s.build_s for s in setups),
            "storage.save_s": statistics.median(s.save_s for s in setups),
            "storage.load_s": statistics.median(s.load_s for s in setups),
            "data.generate_s": statistics.median(
                s.generate_s for s in setups
            ),
        },
    )
    out.info.update(corpus_sets=last.sets, corpus_postings=last.postings)
    out.report["load_s"] = out.metrics["storage.load_s"]


def latency_metrics(out: Outcome, phases: List["Phase"]) -> Dict[str, list]:
    """Latency figures over every request of every pass, pooled.

    Pooled percentiles do not depend on how many passes fitted in the
    run, so a machine that is slower for a while shifts them by its
    slowdown and no more.  Returns the pooled latencies by kind.
    """
    pooled: Dict[str, list] = {}
    for phase in phases:
        for kind, values in phase.latencies.items():
            pooled.setdefault(kind, []).extend(values)
    every = [x for values in pooled.values() for x in values]
    out.metrics.update(
        query_p50_ms=statistics.median(pooled["search"]) * 1e3,
        query_p99_ms=percentile(pooled["search"], 99) * 1e3,
        ops_per_s=len(every) / sum(every),
    )
    out.info.update(passes=len(phases), query_samples=len(pooled["search"]))
    out.report["query_qps"] = len(pooled["search"]) / sum(pooled["search"])
    return pooled


def counter_metrics(out: Outcome, results: Sequence) -> None:
    """Exact counters: means over a fixed, seed-determined query list."""
    totals = dict.fromkeys(
        ("elements_read", "sequential_pages", "random_pages",
         "skip_jumps", "hash_probes"), 0,
    )
    cost = 0.0
    for result in results:
        for name in totals:
            totals[name] += getattr(result.stats, name)
        cost += result.stats.cost()
    n = len(results)
    out.metrics["elements_read_per_query"] = totals["elements_read"] / n
    out.metrics["io_cost_per_query"] = cost / n
    out.report.update({f"counter.{k}": v for k, v in totals.items()})
    out.report["counter.queries"] = n


def check(out: Outcome, ok: bool, what: str) -> None:
    if not ok:
        out.fail(f"wrong answer: {what}")


class Phase:
    """Latencies of one measured pass; ``recorder`` set when traced."""

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder
        self.latencies: Dict[str, List[float]] = {}

    def call(self, kind: str, fn: Callable, *args, **kwargs):
        """Time one client request (the root span when traced)."""
        started = time.perf_counter()
        if self.recorder is None:
            value = fn(*args, **kwargs)
        else:
            with self.recorder.request():
                value = fn(*args, **kwargs)
        self.latencies.setdefault(kind, []).append(
            time.perf_counter() - started
        )
        return value

    def all_ops(self) -> List[float]:
        return [x for values in self.latencies.values() for x in values]

    def total(self) -> float:
        return sum(self.all_ops())

    def requests(self) -> int:
        return len(self.all_ops())


def traced_pair(out: Outcome, run: Callable[[Phase], object]):
    """Run the schedule plain, then traced; set the per-layer metrics and
    return what the traced ``run`` returned."""
    plain = Phase()
    run(plain)
    recorder = SpanRecorder()
    phase = Phase(recorder)
    gc.collect()
    with traced(recorder):
        extra = run(phase)
    layer_metrics(out, recorder, phase)
    out.recorder = recorder
    out.metrics["trace.overhead_pct"] = (
        (phase.total() - plain.total()) / plain.total() * 100.0
    )
    return extra


def repeat_passes(ctx: Context, out: Outcome, run: Callable):
    """Run passes 0, 1, 2, ... (at least ``MIN_PASSES``, then until
    ``ctx.seconds`` have elapsed) and pool the latencies of all of them.

    ``run(phase, number)`` returns ``(answers, results)``.  The exact
    counters cover the results of the passes every run makes, so a seed
    fixes them.  Returns the last pass's answers and the pooled latencies
    by kind.
    """
    minimum = ctx.size(MIN_PASSES, 2)
    phases, counted = [], []
    started = time.perf_counter()
    while (len(phases) < minimum
           or time.perf_counter() - started < ctx.seconds):
        phases.append(Phase())
        answers, results = run(phases[-1], len(phases) - 1)
        if len(phases) <= minimum:
            counted.extend(results)
    counter_metrics(out, counted)
    return answers, latency_metrics(out, phases)


def layer_metrics(out: Outcome, recorder: SpanRecorder, phase: Phase) -> None:
    """Self times per request (ms), per-call figures, and the counters of
    every algorithm execution the traced pass saw."""
    summary = recorder.summary()
    requests = phase.requests()

    def per_request(*names: str) -> float:
        return sum(summary.get(n, (0, 0.0))[1] for n in names) / requests * 1e3

    def per_call(name: str) -> float:
        calls, total = summary.get(name, (0, 0.0))
        return total / calls * 1e3 if calls else 0.0

    m = out.metrics
    m["httpd.self_ms"] = per_request("client")
    m["service.self_ms"] = per_request("service.search", "service.batch")
    m["service.batch_self_ms"] = per_call("service.batch")
    m["search.prepare_ms"] = per_request("search.prepare")
    m["search.dispatch_ms"] = per_request("search.dispatch")
    for name in ALGORITHMS:
        m[f"algorithms.{name}.self_ms"] = per_request(f"algorithms.{name}")
    m["storage.cursor_ms"] = per_request("storage.cursor")
    m["storage.cursor_calls"] = (
        summary.get("storage.cursor", (0, 0.0))[0] / requests
    )
    m["updatable.add_ms"] = per_call("updatable.add")
    m["updatable.rebuild_ms"] = per_call("updatable.rebuild")
    m["updatable.rebuilds"] = summary.get("updatable.rebuild", (0, 0.0))[0]
    m["updatable.search_ms"] = per_request("updatable.search")
    m["trace.coverage_pct"] = (
        sum(total for _calls, total in summary.values())
        / phase.total() * 100.0
    )

    executions = recorder.algorithm_results
    by_algorithm: Dict[str, List] = {}
    for result in executions:
        by_algorithm.setdefault(result.algorithm, []).append(result)
    for name in ALGORITHMS:
        runs = by_algorithm.get(name, [])
        m[f"algorithms.{name}.elements_read"] = (
            sum(r.stats.elements_read for r in runs) / len(runs)
            if runs else 0.0
        )
    n = max(len(executions), 1)
    read = sum(r.stats.elements_read for r in executions)
    total = sum(r.elements_total for r in executions)
    m["algorithms.pruning_power"] = 1.0 - read / total if total else 0.0
    m["algorithms.peak_candidates"] = (
        sum(r.peak_candidates for r in executions) / n
    )
    for name in ("sequential_pages", "random_pages", "skip_jumps",
                 "hash_probes"):
        m[f"storage.{name}"] = (
            sum(getattr(r.stats, name) for r in executions) / n
        )
    out.report["trace.spans"] = len(recorder.start)
    out.report["trace.executions"] = len(executions)


def cache_ratios(out: Outcome, before: dict, after: dict) -> None:
    empty = {"hits": 0, "misses": 0}
    for cache in ("result", "prepared"):
        # An empty cache reports its stats as None.
        b = before[f"{cache}_cache"] or empty
        a = after[f"{cache}_cache"] or empty
        hits = a["hits"] - b["hits"]
        lookups = hits + a["misses"] - b["misses"]
        out.metrics[f"service.{cache}_cache_hit_ratio"] = (
            hits / lookups if lookups else 0.0
        )


def no_http(out: Outcome) -> None:
    """Layer figures that only the HTTP workload produces."""
    out.metrics["httpd.response_bytes"] = 0.0
    out.metrics.setdefault("service.coalesced_per_batch", 0.0)


def guarded(out: Outcome, fn: Callable, *args, **kwargs):
    """One request at the workload's boundary: a failure is counted,
    reported once, and the loop goes on."""
    out.attempted += 1
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - counted and reported
        out.fail(f"{type(exc).__name__}: {exc}")
        return None


# ----------------------------------------------------------------------
# select-large
# ----------------------------------------------------------------------
def select_large(ctx: Context) -> Outcome:
    """In-process closed loop of distinct queries on the 11.4k-set index;
    algorithms rotate sf/inra/hybrid; every lookup misses the caches."""
    out = Outcome()
    setups = ctx.setups(LARGE, "select-large")
    searcher = setups[-1].searcher
    stream = query_stream(searcher.collection, random.Random(ctx.seed))
    # The counters and the oracle cover this many leading queries, which
    # the seed alone fixes; timing goes on over further queries.
    counted = ctx.size(8000, 30)

    def run(phase: Phase, queries, seconds: float = 0.0):
        """Send ``queries`` in turn through one service, stopping after
        ``counted`` of them once ``seconds`` have elapsed; returns the
        answers to the counted ones."""
        service = SimilarityService(searcher)
        before = service.stats()
        answers = []
        gc.collect()
        started = time.perf_counter()
        for i, (_text, tokens) in enumerate(queries):
            if i >= counted and time.perf_counter() - started >= seconds:
                break
            reply = guarded(
                out, phase.call, "search", service.search, tokens, TAU,
                algorithm=ALGORITHMS[i % len(ALGORITHMS)],
            )
            if i < counted:
                answers.append((tokens, reply))
        cache_ratios(out, before, service.stats())
        service.close()
        return answers

    if ctx.trace:
        queries = take(stream, ctx.size(300, 30))
        answers = traced_pair(out, lambda p: run(p, queries))
    else:
        phase = Phase()
        answers = run(phase, stream, ctx.seconds)
        latency_metrics(out, [phase])
        counter_metrics(out, [r.result for _t, r in answers
                              if r is not None])
    no_http(out)

    # Oracle on a seeded sample of the counted queries: brute-force
    # answers, and the same exact counters from a direct search.
    brute = BruteForce(TOKENIZER.tokens(w) for w in setups[-1].words)
    stats = IdfStatistics.from_sets(brute.sets)
    sample = random.Random(ctx.seed + 1).sample(
        range(len(answers)), ctx.size(150, 20)
    )
    for i in sorted(sample):
        tokens, reply = answers[i]
        if reply is None:
            continue
        result = reply.result
        check(out, matches(
            ((r.set_id, r.score) for r in result.results),
            brute.answers(tokens, TAU, stats), TAU,
        ), f"select-large query {i}")
        direct = searcher.search(tokens, TAU, result.algorithm)
        if direct.stats.snapshot() != result.stats.snapshot():
            out.fail(f"select-large query {i}: exact counters differ "
                     "from a direct search")
    setup_metrics(out, setups)
    out.info.update(clients=1, flush="none during the run; set-up saves "
                    "with fsync (generation layout)")
    return out


# ----------------------------------------------------------------------
# http-hot
# ----------------------------------------------------------------------
BATCH_EVERY = 10
BATCH_SIZE = 16


def http_hot(ctx: Context) -> Outcome:
    """One keep-alive connection, Zipf-skewed texts, warmed caches; every
    10th request is a 16-text ``/batch``."""
    out = Outcome()
    setups = ctx.setups(SMALL, "http-hot")
    searcher = setups[-1].searcher
    rng = random.Random(ctx.seed)
    # The pool is the head of a longer stream; the exact counters cover
    # the whole stream, because 2,048 queries leave them seed-dependent.
    counted = [text for text, _tokens in take(
        query_stream(searcher.collection, rng), ctx.size(8000, 64)
    )]
    pool = counted[:ctx.size(2048, 64)]
    cum_weights = list(itertools.accumulate(
        1.0 / rank for rank in range(1, len(pool) + 1)
    ))

    def draw(k: int) -> List[str]:
        return rng.choices(pool, cum_weights=cum_weights, k=k)

    warmup = draw(ctx.size(2048, 64))

    def schedule(searches: int) -> List[List[str]]:
        requests = []
        while sum(len(r) == 1 for r in requests) < searches:
            batch = len(requests) % BATCH_EVERY == BATCH_EVERY - 1
            requests.append(draw(BATCH_SIZE if batch else 1))
        return requests

    def run(phase: Phase, requests: List[List[str]]):
        service = SimilarityService(
            searcher, ServiceConfig(max_workers=2), tokenizer=TOKENIZER
        )
        for text in warmup:
            service.search(TOKENIZER.tokens(text), TAU)
        server = ServiceHTTPServer(service, port=0).start()
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=60)
        headers = {"Content-Type": "application/json"}

        def post(path: str, body: bytes):
            conn.request("POST", path, body, headers)
            response = conn.getresponse()
            return response.status, response.read()

        replies = []
        before = service.stats()
        gc.collect()
        try:
            for texts in requests:
                if len(texts) == 1:
                    kind, path = "search", "/search"
                    body = {"text": texts[0], "threshold": TAU}
                else:
                    kind, path = "batch", "/batch"
                    body = {"queries": texts, "threshold": TAU}
                replies.append((texts, guarded(
                    out, phase.call, kind, post, path,
                    json.dumps(body).encode("utf-8"),
                )))
        finally:
            conn.close()
            server.shutdown()
            after = service.stats()
            service.close()
        cache_ratios(out, before, after)
        batches = sum(len(t) > 1 for t in requests)
        out.metrics["service.coalesced_per_batch"] = (
            (after["coalesced"] - before["coalesced"]) / batches
            if batches else 0.0
        )
        sizes = [len(r[1]) for _t, r in replies if r is not None]
        out.metrics["httpd.response_bytes"] = sum(sizes) / max(len(sizes), 1)
        return replies

    if ctx.trace:
        requests = schedule(ctx.size(200, 20))
        replies = traced_pair(out, lambda p: run(p, requests))
    else:
        phase = Phase()
        replies = run(phase, schedule(ctx.size(1000, 60)))
        latency_metrics(out, [phase])
        out.report.update(
            http_search_p50_ms=out.metrics["query_p50_ms"],
            http_search_p99_ms=out.metrics["query_p99_ms"],
            http_batch_p50_ms=statistics.median(
                phase.latencies["batch"]
            ) * 1e3,
            http_qps=phase.requests() / phase.total(),
        )

    # Oracle: every answer equals a direct SetSimilaritySearcher.search.
    expected = {
        text: searcher.search(TOKENIZER.tokens(text), TAU, "sf")
        for text in counted
    }
    for texts, reply in replies:
        if reply is None:
            continue
        status, data = reply
        if status != 200:
            out.fail(f"HTTP {status}: {data[:200]!r}")
            continue
        body = json.loads(data)
        slots = [body] if len(texts) == 1 else body["results"]
        for text, slot in zip(texts, slots):
            check(out, [(m["id"], m["score"]) for m in slot["results"]]
                  == [(r.set_id, r.score) for r in expected[text].results],
                  f"http-hot text {text!r}")
    if not ctx.trace:
        counter_metrics(out, list(expected.values()))
    setup_metrics(out, setups)
    out.info.update(clients=1, flush="none during the run; set-up saves "
                    "with fsync (generation layout)")
    return out


# ----------------------------------------------------------------------
# ingest-mixed
# ----------------------------------------------------------------------
SEARCHES_PER_ADD = 4
ORACLE_EVERY = 8


def ingest_mixed(ctx: Context) -> Outcome:
    """One caller: 1 ``add`` per 4 distinct searches over an
    UpdatableSearcher; each pass runs until its first automatic rebuild
    and draws its own inserts and searches."""
    out = Outcome()

    def updatable(loaded, words) -> UpdatableSearcher:
        return UpdatableSearcher(
            [sorted(rec.tokens) for rec in loaded.collection], payloads=words
        )

    setups = ctx.setups(SMALL, "ingest-mixed", updatable)
    loaded, base_words = setups[-1].searcher, setups[-1].words

    def run(phase: Phase, number: int):
        """One pass from the base until the first automatic rebuild.  Its
        inserts and searches depend only on the seed and ``number``; a
        run makes far fewer than 1,000 passes."""
        upd = updatable(loaded, base_words)
        pass_seed = ctx.seed * 1000 + number
        rng = random.Random(pass_seed)
        inserts = fresh_words(base_words, pass_seed)
        present = list(base_words)
        seen = set()
        service = SimilarityService(upd)
        before = service.stats()
        searches, checks = [], []
        gc.collect()
        while upd.epoch < 1:
            for _ in range(SEARCHES_PER_ADD):
                while True:
                    text = apply_modifications(rng.choice(present), 1, rng)
                    tokens = TOKENIZER.tokens(text)
                    if tokens and frozenset(tokens) not in seen:
                        break
                seen.add(frozenset(tokens))
                reply = guarded(out, phase.call, "search", service.search,
                                tokens, TAU)
                if reply is not None:
                    searches.append(reply.result)
                    if len(searches) % ORACLE_EVERY == 1:
                        checks.append((tokens, len(upd), reply))
            word = next(inserts)
            guarded(out, phase.call, "add", upd.add,
                    TOKENIZER.tokens(word), payload=word)
            present.append(word)
        cache_ratios(out, before, service.stats())
        service.close()
        return (checks, present), searches

    if ctx.trace:
        (checks, present), _searches = traced_pair(
            out, lambda p: run(p, 0)
        )
    else:
        (checks, present), pooled = repeat_passes(ctx, out, run)
        adds = pooled["add"]
        out.report.update(
            insert_p50_ms=statistics.median(adds) * 1e3,
            insert_p99_ms=percentile(adds, 99) * 1e3,
            inserts=len(adds),
        )
    no_http(out)

    # Oracle: brute force over the sets live at each checked search,
    # scored with the epoch's statistics: every check ran before the
    # pass's first rebuild, so those are the base set's.
    brute = BruteForce(TOKENIZER.tokens(w) for w in present)
    stats = IdfStatistics.from_sets(brute.sets[:len(base_words)])
    for tokens, live, reply in checks:
        check(out, matches(
            ((r.set_id, r.score) for r in reply.results),
            brute.answers(tokens, TAU, stats, live), TAU,
        ), f"ingest-mixed search at {live} sets")
    setup_metrics(out, setups)
    out.info.update(
        clients=1, flush="in-memory UpdatableSearcher, no fsync (non-durable)",
    )
    return out


WORKLOADS = {
    "select-large": select_large,
    "http-hot": http_hot,
    "ingest-mixed": ingest_mixed,
}
