"""Shared benchmark fixtures: the experiment corpus and context.

The corpus here plays the role of the paper's IMDB word table (Section
VIII-A): records are generated synthetically (see
:mod:`repro.data.synthetic`), decomposed into distinct words, and each word
becomes a set of padded 3-grams.  Workloads are smaller than the paper's
100-word ones (30 words per workload) purely to keep pure-Python benchmark
runtime reasonable; pass ``--repro-queries N`` / ``--repro-records N`` to
scale up.

Every benchmark writes its paper-style table into ``benchmarks/results/``
so the regenerated rows survive pytest's output capture.
"""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Sequence

import pytest

from repro.data.synthetic import generate_word_database
from repro.data.workloads import make_workload
from repro.eval.harness import ExperimentContext

RESULTS_DIR = Path(__file__).parent / "results"

MIN_SAMPLE_SECONDS = 0.2
"""Shortest timed sample per mode in the overhead benchmarks.  One
30-query pass takes a few ms, too short to resolve a 2% difference
between modes, so a sample repeats the pass until it lasts this long."""


def pytest_addoption(parser):
    parser.addoption(
        "--repro-records",
        type=int,
        default=4000,
        help="synthetic records for the benchmark corpus",
    )
    parser.addoption(
        "--repro-queries",
        type=int,
        default=30,
        help="queries per workload (paper: 100)",
    )


@pytest.fixture(scope="session")
def corpus(request):
    records = request.config.getoption("--repro-records")
    collection, words = generate_word_database(
        num_records=records, vocabulary_size=max(records // 2, 500), seed=2008
    )
    return collection, words


@pytest.fixture(scope="session")
def context(corpus):
    collection, _words = corpus
    return ExperimentContext(collection)


@pytest.fixture(scope="session")
def num_queries(request):
    return request.config.getoption("--repro-queries")


@pytest.fixture(scope="session")
def default_workload(context, num_queries):
    """The paper's default workload: 11-15 grams, 0 modifications."""
    return make_workload(
        context.collection, bucket=(11, 15), count=num_queries,
        modifications=0, seed=77,
    )


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist a paper-style table and echo it for -s runs."""
    path = results_dir / name
    path.write_text(text + "\n")
    print(f"\n[{name}]\n{text}")


def interleaved_sample(
    modes: Sequence[str], run_pass: Callable[[str], float]
) -> Dict[str, float]:
    """One timed sample per mode: mean seconds per pass.

    ``run_pass(mode)`` runs one pass in ``mode`` and returns its timed
    seconds.  Passes cycle through ``modes`` until every mode has run
    for :data:`MIN_SAMPLE_SECONDS`, so a change in machine speed during
    the sample (other load, clock scaling) reaches every mode alike.
    """
    totals = dict.fromkeys(modes, 0.0)
    passes = 0
    while min(totals.values()) < MIN_SAMPLE_SECONDS:
        for mode in modes:
            totals[mode] += run_pass(mode)
        passes += 1
    return {mode: total / passes for mode, total in totals.items()}


COUNT_BOUND = 0.02
"""Most a disabled mode may add over stripped in each counted unit."""


def count_opcodes(run: Callable[[], object]) -> int:
    """Bytecodes executed by ``run()``."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return count


def count_c_calls(run: Callable[[], object]) -> int:
    """Calls into C functions made by ``run()``."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "c_call":
            count += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def counted_overhead(run_pass: Callable[[str], object]) -> Dict[str, float]:
    """One pass in each of the ``stripped`` and ``disabled`` modes, counted
    in executed bytecodes and in calls into C.

    Unlike the clock, both units repeat exactly run to run and machine to
    machine, so a 2% bound on them holds on any runner; counting C calls
    too keeps a disabled path that calls an expensive builtin from
    looking free.  Returns each mode's counts and disabled's overhead in
    percent, keyed as the ``BENCH_*.json`` records hold them.
    """
    record: Dict[str, float] = {}
    for unit, counter in (("opcodes", count_opcodes), ("c_calls", count_c_calls)):
        for mode in ("stripped", "disabled"):
            record[f"{mode}_{unit}"] = counter(partial(run_pass, mode))
        overhead = record[f"disabled_{unit}"] / record[f"stripped_{unit}"] - 1.0
        record[f"disabled_{unit}_overhead_pct"] = round(overhead * 100.0, 3)
    record["count_bound_pct"] = COUNT_BOUND * 100.0
    return record


def assert_counts_within_bound(record: Dict[str, float]) -> None:
    """Disabled executes at most ``COUNT_BOUND`` more than stripped, in
    bytecodes and in C calls."""
    for unit in ("opcodes", "c_calls"):
        limit = record[f"stripped_{unit}"] * (1.0 + COUNT_BOUND)
        assert record[f"disabled_{unit}"] <= limit, (unit, record)
