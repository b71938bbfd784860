"""Command-line interface: build, persist, query and benchmark indexes.

Usage (also via ``python -m repro``):

    repro index  --input strings.txt --output ./idx --q 3
    repro query  --index ./idx --text "Main Stret" --threshold 0.7
    repro topk   --index ./idx --text "Main Stret" -k 5
    repro info   --index ./idx
    repro bench  --records 2000 --queries 15 --tau 0.8
    repro batch  --index ./idx --input queries.txt --threshold 0.7
    repro serve  --index ./idx --port 8080
    repro trace  --input spans.jsonl

``index`` reads one string per line and builds a q-gram searcher; ``query``
and ``topk`` print tab-separated ``score<TAB>string`` rows, best first.
``batch`` answers a whole query file through the service layer (caching,
thread-pool execution, optional deadlines); ``serve`` exposes the same
service over JSON/HTTP.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, List, Optional

from . import __version__
from .algorithms.base import algorithm_names
from .core.errors import ReproError
from .core.search import SetSimilaritySearcher, StringMatcher
from .core.tokenize import QGramTokenizer
from .storage.persist import load_searcher, save_searcher


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Set similarity selection queries (ICDE 2008 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and persist an index")
    p_index.add_argument("--input", required=True, help="one string per line")
    p_index.add_argument("--output", required=True, help="index directory")
    p_index.add_argument("--q", type=int, default=3, help="q-gram size")

    p_query = sub.add_parser("query", help="threshold selection")
    p_query.add_argument("--index", required=True)
    p_query.add_argument("--text", required=True)
    p_query.add_argument("--threshold", type=float, default=0.7)
    p_query.add_argument(
        "--algorithm", default="sf", choices=algorithm_names()
    )
    p_query.add_argument(
        "--stats", action="store_true", help="print I/O telemetry to stderr"
    )
    p_query.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the query as JSONL "
        "(render with `repro trace --input PATH`)",
    )

    p_topk = sub.add_parser("topk", help="top-k most similar strings")
    p_topk.add_argument("--index", required=True)
    p_topk.add_argument("--text", required=True)
    p_topk.add_argument("-k", type=int, default=5)

    p_info = sub.add_parser("info", help="describe a persisted index")
    p_info.add_argument("--index", required=True)

    p_bench = sub.add_parser(
        "bench", help="mini benchmark on a synthetic corpus"
    )
    p_bench.add_argument("--records", type=int, default=2000)
    p_bench.add_argument("--queries", type=int, default=15)
    p_bench.add_argument("--tau", type=float, default=0.8)
    p_bench.add_argument(
        "--metrics", action="store_true",
        help="collect registry metrics and print a one-line summary "
        "to stderr",
    )

    p_dedupe = sub.add_parser(
        "dedupe", help="group near-duplicate lines of a file"
    )
    p_dedupe.add_argument("--input", required=True, help="one string per line")
    p_dedupe.add_argument("--threshold", type=float, default=0.7)
    p_dedupe.add_argument("--q", type=int, default=3)
    p_dedupe.add_argument(
        "--min-size", type=int, default=2,
        help="smallest duplicate group to report",
    )

    p_check = sub.add_parser(
        "check",
        help="run the static-analysis suite (tools.check) over the source",
    )
    p_check.add_argument(
        "check_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to `python -m tools.check`",
    )

    p_batch = sub.add_parser(
        "batch",
        help="answer a file of queries as one batch (service layer)",
    )
    p_batch.add_argument("--index", required=True)
    p_batch.add_argument(
        "--input", required=True, help="one query string per line"
    )
    p_batch.add_argument("--threshold", type=float, default=0.7)
    p_batch.add_argument(
        "--algorithm", default="sf",
        choices=[*algorithm_names(), "auto"],
    )
    p_batch.add_argument(
        "--strategy", default="threads",
        choices=["threads", "shared", "auto"],
        help="per-query thread pool, shared term-at-a-time scan, or "
        "overlap-driven choice",
    )
    p_batch.add_argument(
        "--workers", type=int, default=None, help="thread-pool width"
    )
    p_batch.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-query deadline; timeouts degrade to tightened SF",
    )
    p_batch.add_argument(
        "--json", action="store_true",
        help="one JSON object per query instead of tab-separated rows",
    )
    p_batch.add_argument(
        "--stats", action="store_true",
        help="print service cache/degradation counters to stderr",
    )
    p_batch.add_argument(
        "--metrics", action="store_true",
        help="collect registry metrics and print a one-line summary "
        "to stderr",
    )

    p_trace = sub.add_parser(
        "trace", help="render a recorded span trace as a flame summary"
    )
    p_trace.add_argument(
        "--input", required=True,
        help="JSONL trace written by `repro query --trace`",
    )

    p_serve = sub.add_parser(
        "serve", help="serve an index over JSON/HTTP (stdlib only)"
    )
    p_serve.add_argument("--index", required=True)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--algorithm", default="sf",
        choices=[*algorithm_names(), "auto"],
    )
    p_serve.add_argument(
        "--workers", type=int, default=None, help="thread-pool width"
    )
    p_serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-query deadline; timeouts degrade to tightened SF",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="result-cache entries (0 disables)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every request"
    )

    return parser


def _write_cli_meta(index_dir: str, q: int) -> None:
    import json
    from pathlib import Path

    (Path(index_dir) / "cli.json").write_text(json.dumps({"q": q}))


def _tokenizer_for(index_dir: str):
    """The tokenizer the index was built with (from the CLI meta file)."""
    import json
    from pathlib import Path

    meta = Path(index_dir) / "cli.json"
    q = 3
    if meta.exists():
        q = int(json.loads(meta.read_text()).get("q", 3))
    return QGramTokenizer(q=q)


def cmd_index(args, out: IO[str]) -> int:
    with open(args.input, encoding="utf-8") as fh:
        strings = [line.rstrip("\n") for line in fh if line.strip()]
    if not strings:
        print("error: input file holds no strings", file=sys.stderr)
        return 2
    matcher = StringMatcher(strings, tokenizer=QGramTokenizer(q=args.q))
    manifest = save_searcher(matcher.searcher, args.output)
    _write_cli_meta(args.output, args.q)
    print(
        f"indexed {manifest['num_sets']} strings "
        f"({manifest['num_tokens']} tokens, "
        f"{manifest['num_postings']} postings) -> {args.output}",
        file=out,
    )
    return 0


def cmd_query(args, out: IO[str]) -> int:
    searcher = load_searcher(args.index)
    tokenizer = _tokenizer_for(args.index)
    tokens = tokenizer.tokens(args.text)
    if not tokens:
        print("error: query tokenizes to nothing", file=sys.stderr)
        return 2
    if args.trace:
        from .obs import trace as obs_trace

        with obs_trace.capture() as tracer:
            result = searcher.search(
                tokens, args.threshold, algorithm=args.algorithm
            )
        spans = tracer.write_jsonl(args.trace)
        print(f"wrote {spans} spans to {args.trace}", file=sys.stderr)
    else:
        result = searcher.search(
            tokens, args.threshold, algorithm=args.algorithm
        )
    for r in result.results:
        print(f"{r.score:.4f}\t{searcher.collection.payload(r.set_id)}", file=out)
    if args.stats:
        print(
            f"elements_read={result.stats.elements_read} "
            f"of {result.elements_total} "
            f"(pruning {result.pruning_power:.1%}), "
            f"random_pages={result.stats.random_pages}",
            file=sys.stderr,
        )
    return 0


def cmd_topk(args, out: IO[str]) -> int:
    searcher = load_searcher(args.index)
    tokens = _tokenizer_for(args.index).tokens(args.text)
    if not tokens:
        print("error: query tokenizes to nothing", file=sys.stderr)
        return 2
    result = searcher.top_k(tokens, args.k)
    for r in result.results:
        print(f"{r.score:.4f}\t{searcher.collection.payload(r.set_id)}", file=out)
    return 0


def cmd_info(args, out: IO[str]) -> int:
    searcher = load_searcher(args.index)
    from .core.collection import collection_summary

    summary = collection_summary(searcher.collection)
    sizes = searcher.index.size_report()
    print(f"sets:        {int(summary['num_sets'])}", file=out)
    print(f"vocabulary:  {int(summary['vocabulary'])} tokens", file=out)
    print(f"mean size:   {summary['mean_set_size']:.1f} tokens/set", file=out)
    for name, size in sizes.items():
        print(f"{name:>28}: {size} bytes", file=out)
    return 0


def cmd_bench(args, out: IO[str]) -> int:
    from contextlib import nullcontext

    from .data.synthetic import generate_word_database
    from .data.workloads import make_workload
    from .eval.harness import ExperimentContext, format_table
    from .obs import metrics as obs_metrics

    collection, _words = generate_word_database(
        num_records=args.records,
        vocabulary_size=max(args.records // 2, 200),
        seed=2008,
    )
    context = ExperimentContext(collection)
    workload = make_workload(
        collection, (11, 15), args.queries, modifications=0, seed=77
    )
    scope = (
        obs_metrics.use_registry(obs_metrics.MetricsRegistry())
        if args.metrics
        else nullcontext(obs_metrics.get_registry())
    )
    with scope as registry:
        rows = [
            context.run_workload(engine, workload, args.tau).row()
            for engine in (
                "sort-by-id", "sql", "ta", "nra", "inra", "ita", "sf",
                "hybrid",
            )
        ]
        if args.metrics:
            print(obs_metrics.summary_line(registry), file=sys.stderr)
    print(
        format_table(
            rows,
            ["engine", "avg_results", "avg_wall_ms", "pruning_pct",
             "avg_elems_read", "avg_io_cost"],
        ),
        file=out,
    )
    return 0


def cmd_dedupe(args, out: IO[str]) -> int:
    from .core.join import similarity_clusters
    from .data.loaders import load_lines

    collection = load_lines(args.input, QGramTokenizer(q=args.q))
    if len(collection) == 0:
        print("error: input file holds no strings", file=sys.stderr)
        return 2
    searcher = SetSimilaritySearcher(collection)
    clusters = similarity_clusters(
        searcher, args.threshold, min_size=args.min_size
    )
    for number, cluster in enumerate(clusters, start=1):
        print(f"group {number} ({len(cluster)} records):", file=out)
        for set_id in cluster:
            print(f"  {collection.payload(set_id)}", file=out)
    print(
        f"{len(clusters)} duplicate groups among {len(collection)} records",
        file=out,
    )
    return 0


def _build_service(args, searcher, tokenizer):
    from .service import ServiceConfig, SimilarityService

    config = ServiceConfig(
        algorithm=args.algorithm,
        max_workers=args.workers,
        deadline_seconds=(
            args.deadline_ms / 1000.0
            if args.deadline_ms is not None
            else None
        ),
        result_cache_size=getattr(args, "cache_size", 1024),
    )
    return SimilarityService(searcher, config, tokenizer=tokenizer)


def cmd_batch(args, out: IO[str]) -> int:
    import json

    searcher = load_searcher(args.index)
    tokenizer = _tokenizer_for(args.index)
    with open(args.input, encoding="utf-8") as fh:
        texts = [line.rstrip("\n") for line in fh if line.strip()]
    if not texts:
        print("error: input file holds no queries", file=sys.stderr)
        return 2
    from contextlib import nullcontext

    from .obs import metrics as obs_metrics

    scope = (
        obs_metrics.use_registry(obs_metrics.MetricsRegistry())
        if args.metrics
        else nullcontext(obs_metrics.get_registry())
    )
    with scope as registry, _build_service(
        args, searcher, tokenizer
    ) as service:
        results = service.search_batch(
            [tokenizer.tokens(text) for text in texts],
            args.threshold,
            strategy=args.strategy,
        )
        for i, (text, res) in enumerate(zip(texts, results)):
            if args.json:
                row = {"query": text}
                row.update(res.to_dict(payload_fn=service.payload))
                print(json.dumps(row), file=out)
                continue
            if not res.ok:
                print(f"{i}\tERROR\t{res.error}", file=out)
                continue
            marker = " [degraded]" if res.degraded else ""
            for r in res.results:
                payload = service.payload(r.set_id)
                print(f"{i}\t{r.score:.4f}\t{payload}{marker}", file=out)
        if args.stats:
            print(json.dumps(service.stats()), file=sys.stderr)
        if args.metrics:
            print(obs_metrics.summary_line(registry), file=sys.stderr)
    return 0


def cmd_serve(args, out: IO[str]) -> int:
    import signal

    from .obs import metrics as obs_metrics
    from .service import ServiceHTTPServer

    # A serving process always collects metrics — that is what the
    # /metrics endpoint scrapes.
    obs_metrics.enable()
    searcher = load_searcher(args.index)
    tokenizer = _tokenizer_for(args.index)
    service = _build_service(args, searcher, tokenizer)
    server = ServiceHTTPServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )

    def _request_shutdown(signum, frame):
        # Funnel SIGTERM into the same KeyboardInterrupt path SIGINT
        # takes, so both exit through the graceful drain below.
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _request_shutdown)
    except ValueError:
        pass  # not the main thread (e.g. under a test harness)

    print(
        f"serving {args.index} on {server.url} "
        "(POST /search, POST /batch, GET /stats, GET /metrics, "
        "GET /healthz; SIGINT/SIGTERM drains and stops)",
        file=out,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down: draining in-flight queries...", file=out)
    finally:
        # Stop admitting first (new queries get 503 + Retry-After while
        # the listener winds down), let in-flight queries finish, then
        # release the sockets and the worker pool.
        service.drain(timeout=10.0)
        server.shutdown()
        service.close()
    print("bye", file=out)
    return 0


def cmd_check(args, out: IO[str]) -> int:
    try:
        from tools.check import main as check_main
    except ImportError:
        # Installed without the repo checkout: try the source tree the
        # package was imported from (src/repro -> repo root).
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent.parent
        if (repo_root / "tools" / "check" / "cli.py").exists():
            sys.path.insert(0, str(repo_root))
            from tools.check import main as check_main
        else:
            print(
                "error: the static-analysis suite (tools/check) ships with "
                "the repository, not the installed package; run `python -m "
                "tools.check` from a repo checkout",
                file=sys.stderr,
            )
            return 2
    return check_main(args.check_args, out=out)


def cmd_trace(args, out: IO[str]) -> int:
    from pathlib import Path

    from .obs import trace as obs_trace

    path = Path(args.input)
    if not path.exists():
        print(f"error: no trace file at {args.input}", file=sys.stderr)
        return 2
    records = obs_trace.read_jsonl(path.read_text(encoding="utf-8"))
    print(obs_trace.flame_summary(records), file=out)
    return 0


_COMMANDS = {
    "index": cmd_index,
    "query": cmd_query,
    "topk": cmd_topk,
    "info": cmd_info,
    "bench": cmd_bench,
    "dedupe": cmd_dedupe,
    "check": cmd_check,
    "batch": cmd_batch,
    "serve": cmd_serve,
    "trace": cmd_trace,
}


def main(argv: Optional[List[str]] = None, out: IO[str] = sys.stdout) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        # Forward everything verbatim (argparse's REMAINDER drops leading
        # options, so `repro check --select layering` needs this bypass).
        args = argparse.Namespace(check_args=list(argv[1:]))
        return cmd_check(args, out)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
