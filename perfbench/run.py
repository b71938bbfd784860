"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload select-large --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/``.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` list.  The lines
before it are a readable report, including figures that are not gated
(``error_rate``, the HTTP and insert latencies, the raw counters).
Scratch files (saved indexes, span dumps) go to ``.perfbench/`` under the
repository root.  ``--smoke`` shrinks corpora and schedules so that the
benchmark's own tests run every workload in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".perfbench"

#: Settings that change what the program does per call; the benchmark
#: measures the default configuration.
PROGRAM_ENV = ("REPRO_CHECK_INVARIANTS", "REPRO_FAULTS", "REPRO_METRICS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora and schedules")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no program under {SRC} or no {SPEC.name}",
              file=sys.stderr)
        return 2
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS, Context

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    ctx = Context(args.seed, args.seconds, bool(args.trace), args.smoke,
                  WORKDIR)
    started = time.perf_counter()
    out = WORKLOADS[args.workload](ctx)
    elapsed = time.perf_counter() - started

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    if out.recorder is not None:
        spans = WORKDIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        out.recorder.write(spans)
        out.info["spans_file"] = str(spans.relative_to(ROOT))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}: {elapsed:.1f} s")
    for key, value in sorted(out.info.items()):
        print(f"  {key}: {value}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    out.report["error_rate"] = out.failed / max(out.attempted, 1)
    for name, value in sorted(out.report.items()):
        print(f"  ({name} = {value:.6g})")
    if out.first_error:
        print(f"perfbench: first failure: {out.first_error}", file=sys.stderr)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
