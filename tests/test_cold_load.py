"""A load builds the index from the saved collection.

The contract: a loaded index is indistinguishable from a fresh build of
the saved collection (records, skip-list landings and every ``IOStats``
counter), also for the committed directories of formats 1, 2 and 3.  The
``postings.bin`` of formats 1 and 2 must be exactly what that build encodes; any stored
list a build would not reproduce is rejected as ``postings`` damage,
also when its checksum is valid and also in a v1 flat directory, which
has no checksums at all.  From format 2 on the collection's checksum is
required.  Bulk construction pauses the cyclic garbage collector and
must always leave it as the caller had it.
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
from repro.storage import invlist
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
    frames = []
    offset = 0
    while offset < len(data):
        (size,) = _COUNT.unpack_from(data, offset)
        offset += _COUNT.size
        token = data[offset : offset + size].decode("utf-8")
        offset += size
        (count,) = _COUNT.unpack_from(data, offset)
        offset += _COUNT.size
        end = offset + count * _POSTING.size
        frames.append((token, list(_POSTING.iter_unpack(data[offset:end]))))
        offset = end
    return frames


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


def _assert_same_index(loaded_searcher, built_searcher, queries):
    loaded, built = loaded_searcher.index, built_searcher.index
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
    assert _query_ledgers(loaded_searcher, queries) == _query_ledgers(
        built_searcher, queries
    )


def _queries(seed, vocab=tuple(f"t{i}" for i in range(14))):
    rng = random.Random(seed)
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
        built = SetSimilaritySearcher(
            SetCollection.from_token_sets(sets), **options
        )
        directory = tmp_path_factory.mktemp("cold") / "idx"
        save_searcher(built, directory)
        assert not (directory / "gen-000001" / "postings.bin").exists()

        # The public load: default layout, the saved skip-list flag.
        loaded = load_searcher(directory)
        assert loaded.recovery_report.clean
        fresh = SetSimilaritySearcher(
            SetCollection.from_token_sets(sets),
            with_skip_lists=with_skip_lists,
        )
        _assert_same_index(loaded, fresh, _queries(seed))

    def test_pending_inserts_stay_loadable(self, tmp_path):
        from repro.core.updatable import UpdatableSearcher

        live = UpdatableSearcher([["a", "b"], ["b"], ["c"], ["a", "c"]])
        live.add(["a", "b", "c"])
        save_searcher(live, tmp_path / "u")
        loaded = load_searcher(tmp_path / "u")
        live.rebuild()
        _assert_same_index(loaded, live, _queries(3))


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


CORPUS_VOCAB = tuple(sorted({token for tokens in CORPUS for token in tokens}))


def _corpus_searcher():
    return SetSimilaritySearcher(SetCollection.from_token_sets(CORPUS))


def _two_generations(directory):
    """Make a copy of the live generation current, keeping the original
    as the fallback; return the new current generation."""
    shutil.copytree(directory / "gen-000001", directory / "gen-000002")
    (directory / "CURRENT").write_text("gen-000002\n")
    return directory / "gen-000002"


class TestLegacyFixtures:
    @pytest.mark.parametrize("name", ["v3", "v2", "v1"])
    def test_loads_clean_and_equals_fresh_build(self, legacy_index, name):
        loaded = load_searcher(legacy_index(name))
        report = loaded.recovery_report
        assert report.clean
        assert report.legacy is (name == "v1")
        assert [rec.counts for rec in loaded.collection] == [
            rec.counts for rec in _corpus_searcher().collection
        ]
        _assert_same_index(
            loaded, _corpus_searcher(), _queries(5, CORPUS_VOCAB)
        )


class TestChecksumsRequired:
    """From format 2 on, a manifest without the collection's checksum is
    manifest damage, even when the collection itself looks fine."""

    DAMAGE = {
        "map-deleted": lambda checksums: None,
        "map-empty": lambda checksums: {},
        "entry-missing": lambda checksums: {
            k: v for k, v in checksums.items() if k != "collection.jsonl"
        },
    }

    @pytest.mark.parametrize("source", ["saved", "v2"])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_generation_is_quarantined(
        self, tmp_path, legacy_index, source, damage
    ):
        if source == "saved":
            directory = tmp_path / "idx"
            save_searcher(_corpus_searcher(), directory)
        else:
            directory = legacy_index("v2")
        generation = _two_generations(directory)
        # A tampered payload the missing checksum would have caught.
        collection = generation / "collection.jsonl"
        collection.write_text(
            collection.read_text().replace('"payload": null', '"payload": 1', 1)
        )
        manifest_path = generation / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        checksums = self.DAMAGE[damage](manifest.pop("checksums"))
        if checksums is not None:
            manifest["checksums"] = checksums
        manifest_path.write_text(json.dumps(manifest))

        loaded = load_searcher(directory)
        report = loaded.recovery_report
        assert report.components() == ["manifest"]
        assert report.quarantined == ["gen-000002.corrupt"]
        assert report.loaded_generation == "gen-000001"
        assert loaded.collection.payload(0) is None

    def test_boolean_version_does_not_pass_as_format_1(self, tmp_path):
        directory = tmp_path / "idx"
        save_searcher(_corpus_searcher(), directory)
        manifest_path = directory / "gen-000001" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = True
        del manifest["checksums"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CorruptIndexError) as info:
            load_searcher(directory)
        assert info.value.report.components() == ["manifest"]


class TestSemanticCorruption:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_generation_is_quarantined(self, legacy_index, name):
        directory = legacy_index("v2")
        generation = _two_generations(directory)
        frames = _frames((generation / "postings.bin").read_bytes())
        changes = CORRUPTIONS[name](frames, len(CORPUS))
        _rewrite(generation, frames, checksummed=True, **changes)

        loaded = load_searcher(directory)
        report = loaded.recovery_report
        assert report.components() == ["postings"]
        assert report.quarantined == ["gen-000002.corrupt"]
        assert report.loaded_generation == "gen-000001"

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_v1_flat_directory_is_rejected(self, legacy_index, name):
        directory = legacy_index("v1")
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

        # A set count the collection does not match fails the load
        # inside its pause.
        manifest_path = tmp_path / "idx" / "gen-000001" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["num_sets"] += 1
        manifest_path.write_text(json.dumps(manifest))
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
