"""A load takes the stored lists instead of rebuilding them.

The contract: a loaded index is indistinguishable from a fresh build of
the saved collection (records, skip-list landings and every ``IOStats``
counter), and any ``postings.bin`` that a build would not reproduce is
rejected as ``postings`` damage, also when its checksum is valid and
also in a v1 flat directory, which has no checksums at all.  Bulk
construction pauses the cyclic garbage collector and must always leave
it as the caller had it.
"""

import gc
import hashlib
import json
import math
import os
import random
import shutil
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    SetCollection,
    SetSimilaritySearcher,
    load_searcher,
    save_searcher,
)
from repro.core.errors import CorruptIndexError
from repro.core.weights import normalized_length
from repro.storage import invlist, persist
from repro.storage.invlist import InvertedIndex
from repro.storage.pages import IOStats

ALGORITHMS = ("sf", "inra", "hybrid", "ta", "sort-by-id")

_COUNT = struct.Struct("<I")
_POSTING = struct.Struct("<dQ")

token_sets = st.lists(
    st.lists(st.sampled_from([f"t{i}" for i in range(12)]), max_size=6),
    min_size=1,
    max_size=40,
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _frames(data):
    """``postings.bin`` as ``[(token, [(length, set_id), ...]), ...]``."""
    return list(persist._frames(data))


def _encode(frames):
    chunks = []
    for token, entries in frames:
        encoded = token.encode("utf-8")
        chunks += [_COUNT.pack(len(encoded)), encoded]
        chunks.append(_COUNT.pack(len(entries)))
        chunks += [_POSTING.pack(*entry) for entry in entries]
    return b"".join(chunks)


def _rewrite(directory, frames, checksummed, **manifest_changes):
    """Replace ``postings.bin``; keep its manifest checksum valid."""
    data = _encode(frames)
    (directory / "postings.bin").write_bytes(data)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if checksummed:
        manifest["checksums"]["postings.bin"] = hashlib.sha256(
            data
        ).hexdigest()
    for key, delta in manifest_changes.items():
        manifest[key] += delta
    manifest_path.write_text(json.dumps(manifest, indent=2))


def _query_ledgers(searcher, queries):
    out = []
    for algorithm in ALGORITHMS:
        for tokens, tau in queries:
            result = searcher.search(tokens, tau, algorithm=algorithm)
            out.append(
                (
                    algorithm,
                    [(r.set_id, r.score) for r in result.results],
                    result.stats.snapshot(),
                )
            )
    return out


def _assert_same_index(loaded, built, queries):
    assert sorted(loaded.tokens()) == sorted(built.tokens())
    for token in built.tokens():
        got, want = list(loaded.postings(token)), list(built.postings(token))
        assert got == want
        assert [ln.hex() for ln, _ in got] == [ln.hex() for ln, _ in want]
        skip_got = loaded._postings[token].skip
        skip_want = built._postings[token].skip
        assert (skip_got is None) == (skip_want is None)
        if skip_want is None:
            continue
        assert skip_got.stride == skip_want.stride
        for length, set_id in want:
            for key in ((length, set_id - 1), (length, set_id), (length, set_id + 1)):
                a, b = IOStats(), IOStats()
                assert skip_got.seek_ge(key, a) == skip_want.seek_ge(key, b)
                assert a.snapshot() == b.snapshot()
    assert _query_ledgers(
        SetSimilaritySearcher.from_index(loaded), queries
    ) == _query_ledgers(SetSimilaritySearcher.from_index(built), queries)


def _queries(seed):
    rng = random.Random(seed)
    vocab = [f"t{i}" for i in range(14)]
    return [
        (rng.sample(vocab, rng.randint(1, 4)), rng.choice((0.3, 0.6, 0.9)))
        for _ in range(4)
    ]


# ----------------------------------------------------------------------
# loaded == built
# ----------------------------------------------------------------------
class TestLoadedEqualsBuilt:
    @settings(max_examples=25, deadline=None)
    @given(
        sets=token_sets,
        page_capacity=st.integers(min_value=1, max_value=9),
        stride=st.integers(min_value=1, max_value=5),
        with_skip_lists=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_saved_then_loaded_equals_fresh_build(
        self, tmp_path_factory, sets, page_capacity, stride,
        with_skip_lists, seed,
    ):
        options = dict(
            with_skip_lists=with_skip_lists,
            page_capacity=page_capacity,
            skiplist_stride=stride,
        )
        built = InvertedIndex(SetCollection.from_token_sets(sets), **options)
        directory = tmp_path_factory.mktemp("cold") / "idx"
        manifest = save_searcher(
            SetSimilaritySearcher.from_index(built), directory
        )
        queries = _queries(seed)

        # The public load: default layout, the saved skip-list flag.
        loaded = load_searcher(directory)
        assert loaded.recovery_report.clean
        fresh = InvertedIndex(
            SetCollection.from_token_sets(sets),
            with_skip_lists=with_skip_lists,
        )
        _assert_same_index(loaded.index, fresh, queries)

        # The load's own steps under the build's layout options.
        generation = directory / "gen-000001"
        collection = persist._parse_collection(
            (generation / "collection.jsonl").read_bytes(), manifest
        )
        lists = persist._stored_lists(
            (generation / "postings.bin").read_bytes(), collection, manifest
        )
        _assert_same_index(
            InvertedIndex.from_lists(collection, lists, **options),
            built,
            queries,
        )

    def test_load_takes_no_build_path(self, tmp_path, searcher, monkeypatch):
        save_searcher(searcher, tmp_path / "idx")
        bucketed = []
        real_bucketing = invlist._weight_ordered_lists

        def bucketing(collection):
            bucketed.append(len(collection))
            return real_bucketing(collection)

        stored = []
        real_stored_lists = persist._stored_lists

        def stored_lists(*args):
            lists = real_stored_lists(*args)
            stored.extend(entries for _token, entries in lists)
            return lists

        built = []
        real_build = InvertedIndex._build_postings

        def build_postings(self, token, entries):
            built.append(entries)
            return real_build(self, token, entries)

        monkeypatch.setattr(invlist, "_weight_ordered_lists", bucketing)
        monkeypatch.setattr(persist, "_stored_lists", stored_lists)
        monkeypatch.setattr(InvertedIndex, "_build_postings", build_postings)
        loaded = load_searcher(tmp_path / "idx")
        # No set was bucketed into lists, and every list went to
        # construction as the very object decoded in stored order.
        assert sum(bucketed) == 0
        assert len(built) == len(stored) == len(list(loaded.index.tokens()))
        assert all(a is b for a, b in zip(built, stored))

    def test_pending_inserts_stay_loadable(self, tmp_path):
        from repro.core.updatable import UpdatableSearcher

        live = UpdatableSearcher([["a", "b"], ["b"], ["c"], ["a", "c"]])
        live.add(["a", "b", "c"])
        save_searcher(live, tmp_path / "u")
        loaded = load_searcher(tmp_path / "u")
        live.rebuild()
        _assert_same_index(loaded.index, live.index, _queries(3))


class TestBulkLengths:
    @settings(max_examples=60, deadline=None)
    @given(sets=token_sets)
    def test_lengths_bit_equal_normalized_length(self, sets):
        collection = SetCollection.from_token_sets(sets)
        stats = collection.stats
        assert [ln.hex() for ln in collection.lengths()] == [
            normalized_length(rec.tokens, stats).hex() for rec in collection
        ]


# ----------------------------------------------------------------------
# checksum-valid semantic corruption
# ----------------------------------------------------------------------
def _one_ulp(frames, num_sets):
    token, entries = frames[0]
    length, set_id = entries[-1]
    entries[-1] = (math.nextafter(length, math.inf), set_id)
    return {}


def _move(frames, num_sets):
    # Move a posting into another list that lacks its set, in order.
    for i, (_token, source) in enumerate(frames):
        for j, (_other, target) in enumerate(frames):
            if i == j:
                continue
            ids = {sid for _ln, sid in target}
            for posting in source:
                if posting[1] not in ids:
                    source.remove(posting)
                    target.append(posting)
                    target.sort()
                    return {}
    raise AssertionError("no posting to move")


def _drop(frames, num_sets):
    frames[0][1].pop()
    return {"num_postings": -1}


def _swap(frames, num_sets):
    for _token, entries in frames:
        if len(entries) >= 2:
            entries[0], entries[1] = entries[1], entries[0]
            return {}
    raise AssertionError("no list with two postings")


def _duplicate(frames, num_sets):
    token, entries = frames[0]
    frames.insert(1, (token, list(entries)))
    return {"num_tokens": 1, "num_postings": len(entries)}


def _id_out_of_range(frames, num_sets):
    entries = frames[0][1]
    entries[-1] = (entries[-1][0], num_sets)
    return {}


CORRUPTIONS = {
    "length-one-ulp": _one_ulp,
    "posting-moved": _move,
    "posting-dropped": _drop,
    "adjacent-swapped": _swap,
    "frame-duplicated": _duplicate,
    "id-out-of-range": _id_out_of_range,
}

CORPUS = [
    ["data", "cleaning", "matters"],
    ["data", "cleaning"],
    ["query", "processing"],
    ["set", "similarity", "query", "processing"],
    ["data", "quality", "matters"],
    ["data", "query"],
]


def _corpus_searcher():
    return SetSimilaritySearcher(SetCollection.from_token_sets(CORPUS))


class TestSemanticCorruption:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_generation_is_quarantined(self, tmp_path, name):
        directory = tmp_path / "idx"
        searcher = _corpus_searcher()
        save_searcher(searcher, directory)
        save_searcher(searcher, directory)
        generation = directory / "gen-000002"
        frames = _frames((generation / "postings.bin").read_bytes())
        changes = CORRUPTIONS[name](frames, len(CORPUS))
        _rewrite(generation, frames, checksummed=True, **changes)

        loaded = load_searcher(directory)
        report = loaded.recovery_report
        assert report.components() == ["postings"]
        assert report.quarantined == ["gen-000002.corrupt"]
        assert report.loaded_generation == "gen-000001"

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_v1_flat_directory_is_rejected(self, tmp_path, name):
        directory = tmp_path / "flat"
        save_searcher(_corpus_searcher(), directory)
        generation = directory / "gen-000001"
        for file_name in ("manifest.json", "collection.jsonl", "postings.bin"):
            shutil.move(str(generation / file_name), str(directory / file_name))
        generation.rmdir()
        (directory / "CURRENT").unlink()
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["format_version"] = 1
        del manifest["checksums"]
        (directory / "manifest.json").write_text(json.dumps(manifest))
        assert load_searcher(directory).recovery_report.legacy

        frames = _frames((directory / "postings.bin").read_bytes())
        changes = CORRUPTIONS[name](frames, len(CORPUS))
        _rewrite(directory, frames, checksummed=False, **changes)
        with pytest.raises(CorruptIndexError) as info:
            load_searcher(directory)
        assert info.value.report.components() == ["postings"]

    @pytest.mark.parametrize("count", [0, -1, 1.5, True, "2", None])
    def test_count_that_is_not_positive_int_is_collection_damage(
        self, tmp_path, count
    ):
        directory = tmp_path / "idx"
        save_searcher(_corpus_searcher(), directory)
        generation = directory / "gen-000001"
        lines = (generation / "collection.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["counts"]["data"] = count
        lines[0] = json.dumps(record)
        data = ("\n".join(lines) + "\n").encode("utf-8")
        (generation / "collection.jsonl").write_bytes(data)
        manifest = json.loads((generation / "manifest.json").read_text())
        manifest["checksums"]["collection.jsonl"] = hashlib.sha256(
            data
        ).hexdigest()
        (generation / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptIndexError) as info:
            load_searcher(directory)
        assert info.value.report.components() == ["collection"]


# ----------------------------------------------------------------------
# the garbage collector's state
# ----------------------------------------------------------------------
@pytest.fixture()
def gc_state():
    before = gc.isenabled()
    yield
    if before:
        gc.enable()
    else:
        gc.disable()


class TestGcState:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_and_loads_restore_gc_state(
        self, tmp_path, gc_state, small_collection, enabled
    ):
        (gc.enable if enabled else gc.disable)()
        searcher = SetSimilaritySearcher(small_collection)
        assert gc.isenabled() is enabled
        save_searcher(searcher, tmp_path / "idx")
        load_searcher(tmp_path / "idx")
        assert gc.isenabled() is enabled

        postings = tmp_path / "idx" / "gen-000001" / "postings.bin"
        postings.write_bytes(postings.read_bytes()[:-3])
        with pytest.raises(CorruptIndexError):
            load_searcher(tmp_path / "idx")
        assert gc.isenabled() is enabled

    def test_error_inside_a_pause_restores_gc(self, gc_state):
        gc.enable()
        with pytest.raises(RuntimeError):
            with invlist._gc_paused():
                assert not gc.isenabled()
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_concurrent_builds_leave_gc_enabled(self, gc_state):
        # Overlapping pauses must not hand each other a "disabled" state
        # to restore.  More threads than cores, and a short switch
        # interval, so the pauses interleave.
        gc.enable()
        sets = [[f"t{(i * 7 + j) % 50}" for j in range(5)] for i in range(400)]
        workers = (os.cpu_count() or 1) + 2
        start = threading.Barrier(workers)
        errors = []

        def build():
            try:
                start.wait(timeout=30)
                for _ in range(5):
                    SetSimilaritySearcher(SetCollection.from_token_sets(sets))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=build) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert gc.isenabled()
