"""Crash-recovery tests: corruption, torn writes, and the operations log.

The contract under test, per ``docs/robustness.md``:

* a load of a damaged directory either answers *identically* to the
  undamaged index or raises :class:`CorruptIndexError` whose
  :class:`RecoveryReport` names the damaged component — it never
  returns wrong scores (hypothesis property below);
* a process killed at **any** injected point during ``save_searcher``
  leaves the directory loadable as the old or the new generation;
* a damaged current generation is quarantined and the newest intact
  one takes over, with ``CURRENT`` repaired;
* the operations log replays its intact prefix and drops (then
  compacts away) anything after the first torn record.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    SetCollection,
    SetSimilaritySearcher,
    load_searcher,
    save_searcher,
)
from repro.core.errors import CorruptIndexError, StorageError
from repro.faults import TornWriteError, use_fault_plan
from repro.storage.oplog import DurableUpdatableSearcher, OperationsLog
from repro.storage.persist import RecoveryReport

TOKEN_SETS = [
    ["data", "cleaning", "matters"],
    ["data", "cleaning"],
    ["query", "processing"],
    ["set", "similarity", "query", "processing"],
    ["data", "quality", "matters"],
]

QUERY = ["data", "cleaning", "quality"]

#: Components a RecoveryReport may blame for a single-file corruption.
KNOWN_COMPONENTS = {"manifest", "collection", "postings", "pointer", "io"}


def _make_searcher():
    return SetSimilaritySearcher(SetCollection.from_token_sets(TOKEN_SETS))


def _answers(searcher, threshold=0.3):
    return {
        (r.set_id, round(r.score, 9))
        for r in searcher.search(QUERY, threshold).results
    }


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("recovery") / "idx"
    searcher = _make_searcher()
    save_searcher(searcher, path)
    return path, _answers(searcher)


class TestCorruptionProperty:
    """Hypothesis: any single-byte flip anywhere in the saved state is
    either absorbed (equivalent load) or attributed (CorruptIndexError
    naming the component) — never silently wrong scores."""

    @settings(max_examples=60, deadline=None)
    @given(
        file_index=st.integers(min_value=0, max_value=1),
        offset=st.integers(min_value=0, max_value=10_000_000),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_flip_never_yields_wrong_scores(
        self, saved_dir, file_index, offset, bit
    ):
        path, expected = saved_dir
        gen = path / "gen-000001"
        target = gen / ("manifest.json", "collection.jsonl")[file_index]
        original = target.read_bytes()
        current_before = (path / "CURRENT").read_bytes()
        data = bytearray(original)
        data[offset % len(data)] ^= 1 << bit
        target.write_bytes(bytes(data))
        try:
            try:
                loaded = load_searcher(path)
            except CorruptIndexError as exc:
                assert isinstance(exc.report, RecoveryReport)
                assert exc.report.components()  # damage was attributed
                assert set(exc.report.components()) <= KNOWN_COMPONENTS
                return
            assert _answers(loaded) == expected
        finally:
            # The load may have quarantined the generation or touched
            # CURRENT; restore the module-scoped directory exactly.
            quarantined = path / "gen-000001.corrupt"
            if quarantined.exists():
                quarantined.rename(gen)
            gen.mkdir(exist_ok=True)
            target.write_bytes(original)
            (path / "CURRENT").write_bytes(current_before)


class TestKillNineSimulation:
    """A save killed at any injected fault point must leave the
    directory loadable, answering as either the old or the new state.

    The three fsyncs are those of the collection, the manifest and the
    temp directory, in that order."""

    SITES = [
        ("persist.write_collection", 0),
        ("persist.write_manifest", 0),
        ("persist.fsync", 0),
        ("persist.fsync", 1),
        ("persist.fsync", 2),
        ("persist.promote", 0),
    ]

    @pytest.mark.parametrize("site,after", SITES)
    def test_torn_save_over_existing_generation(self, tmp_path, site, after):
        old = _make_searcher()
        path = tmp_path / "idx"
        save_searcher(old, path)
        expected_old = _answers(old)

        new = SetSimilaritySearcher(
            SetCollection.from_token_sets(TOKEN_SETS + [QUERY])
        )
        expected_new = _answers(new)
        assert expected_old != expected_new  # the states are tellable

        with use_fault_plan(f"{site}:torn:count=1:after={after}"):
            with pytest.raises(TornWriteError):
                save_searcher(new, path)

        loaded = load_searcher(path)
        assert _answers(loaded) in (expected_old, expected_new)

    def test_interrupted_save_leaves_no_tmp_debris_after_retry(
        self, tmp_path
    ):
        searcher = _make_searcher()
        path = tmp_path / "idx"
        save_searcher(searcher, path)
        with use_fault_plan("persist.write_manifest:torn:count=1"):
            with pytest.raises(TornWriteError):
                save_searcher(searcher, path)
        # The retry cleans the stale temp directory, reuses its
        # generation number, and succeeds.
        save_searcher(searcher, path)
        leftovers = [
            p.name for p in path.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        assert (path / "CURRENT").read_text().strip() == "gen-000002"


class TestGenerationFallback:
    def test_damaged_current_falls_back_and_quarantines(self, tmp_path):
        searcher = _make_searcher()
        path = tmp_path / "idx"
        save_searcher(searcher, path)
        save_searcher(searcher, path)  # gen-000002 is now current
        collection = path / "gen-000002" / "collection.jsonl"
        collection.write_bytes(collection.read_bytes()[:-16])

        loaded = load_searcher(path)
        report = loaded.recovery_report
        assert report.recovered
        assert report.loaded_generation == "gen-000001"
        assert "collection" in report.components()
        assert report.quarantined == ["gen-000002.corrupt"]
        assert (path / "CURRENT").read_text().strip() == "gen-000001"
        assert _answers(loaded) == _answers(searcher)

    def test_missing_current_pointer_recovers(self, tmp_path):
        searcher = _make_searcher()
        path = tmp_path / "idx"
        save_searcher(searcher, path)
        current = path / "CURRENT"
        current.write_text("gen-999999\n")  # names a missing generation
        loaded = load_searcher(path)
        assert loaded.recovery_report.recovered
        assert current.read_text().strip() == "gen-000001"

    def test_everything_damaged_raises_with_report(self, tmp_path):
        searcher = _make_searcher()
        path = tmp_path / "idx"
        save_searcher(searcher, path)
        (path / "gen-000001" / "manifest.json").write_text("{not json")
        with pytest.raises(CorruptIndexError) as exc:
            load_searcher(path)
        report = exc.value.report
        assert report.generations_tried == ["gen-000001"]
        assert report.components() == ["manifest"]
        assert "manifest" in report.summary()

    def test_clean_load_reports_clean(self, tmp_path):
        searcher = _make_searcher()
        path = tmp_path / "idx"
        save_searcher(searcher, path)
        loaded = load_searcher(path)
        report = loaded.recovery_report
        assert report.clean and not report.recovered
        assert report.loaded_generation == "gen-000001"

    def test_injected_read_fault_triggers_fallback(self, tmp_path):
        # A one-shot bit-flip on the collection *read* path: the current
        # generation fails its checksum, the fallback read is clean.
        searcher = _make_searcher()
        path = tmp_path / "idx"
        save_searcher(searcher, path)
        save_searcher(searcher, path)
        with use_fault_plan("persist.read_collection:flip:count=1"):
            loaded = load_searcher(path)
        assert loaded.recovery_report.recovered
        assert _answers(loaded) == _answers(searcher)


class TestOperationsLog:
    def test_round_trip(self, tmp_path):
        log = OperationsLog(tmp_path / "oplog.jsonl")
        ops = [{"kind": "add", "tokens": ["a", str(i)]} for i in range(5)]
        for op in ops:
            log.append(op)
        replayed, dropped = log.replay()
        assert replayed == ops and dropped == 0

    def test_torn_tail_dropped(self, tmp_path):
        log = OperationsLog(tmp_path / "oplog.jsonl")
        log.append({"kind": "add", "tokens": ["a"]})
        log.append({"kind": "add", "tokens": ["b"]})
        with open(log.path, "ab") as fh:
            fh.write(b"00000000 {\"kind\": \"add\", \"tok")  # torn append
        replayed, dropped = log.replay()
        assert len(replayed) == 2 and dropped == 1

    def test_mid_log_corruption_truncates_the_rest(self, tmp_path):
        log = OperationsLog(tmp_path / "oplog.jsonl")
        for name in ("a", "b", "c"):
            log.append({"kind": "add", "tokens": [name]})
        lines = log.path.read_bytes().splitlines(keepends=True)
        lines[1] = b"deadbeef" + lines[1][8:]  # break record 2's CRC
        log.path.write_bytes(b"".join(lines))
        replayed, dropped = log.replay()
        # Everything after the first bad record is suspect.
        assert [op["tokens"] for op in replayed] == [["a"]]
        assert dropped == 2

    def test_compact_rewrites_exactly(self, tmp_path):
        log = OperationsLog(tmp_path / "oplog.jsonl")
        for i in range(10):
            log.append({"kind": "add", "tokens": [str(i)]})
        before = log.size_bytes()
        log.compact([{"kind": "add", "tokens": ["only"]}])
        assert log.size_bytes() < before
        replayed, dropped = log.replay()
        assert replayed == [{"kind": "add", "tokens": ["only"]}]
        assert dropped == 0


class TestDurableUpdatableSearcher:
    def test_reload_replays_everything(self, tmp_path):
        s = DurableUpdatableSearcher(
            tmp_path, initial_sets=TOKEN_SETS[:3]
        )
        s.add(TOKEN_SETS[3])
        s.add(TOKEN_SETS[4], payload="five")
        expected = _answers(s)

        s2 = DurableUpdatableSearcher(tmp_path)
        assert s2.replayed == 5 and s2.dropped == 0
        assert _answers(s2) == expected
        assert s2.payload(4) == "five"

    def test_torn_tail_dropped_and_compacted(self, tmp_path):
        s = DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        with open(s.log.path, "ab") as fh:
            fh.write(b"deadbeef {\"kind\": \"add\"")  # crash mid-append
        s2 = DurableUpdatableSearcher(tmp_path)
        assert s2.replayed == 2 and s2.dropped == 1
        # The tear was compacted away: a third load sees a clean log.
        s3 = DurableUpdatableSearcher(tmp_path)
        assert s3.replayed == 2 and s3.dropped == 0

    def test_compact_replays_the_same_sets(self, tmp_path):
        s = DurableUpdatableSearcher(
            tmp_path, initial_sets=TOKEN_SETS[:3], auto_rebuild_fraction=1.0
        )
        s.add(["data", "data", "cleaning"], payload="dup")  # a multiset
        s.add(TOKEN_SETS[3])
        assert s.compact() == 5
        s2 = DurableUpdatableSearcher(tmp_path)
        assert s2.replayed == 5
        assert [(r.counts, r.payload) for r in s2.collection] == [
            (r.counts, r.payload) for r in s.collection
        ]
        s.rebuild()
        assert _answers(s2) == _answers(s)

    def test_double_apply_guard(self, tmp_path):
        DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        with pytest.raises(StorageError):
            DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])

    def test_unknown_op_kind_rejected(self, tmp_path):
        log = OperationsLog(tmp_path / "oplog.jsonl")
        log.append({"kind": "drop-table", "tokens": []})
        with pytest.raises(StorageError):
            DurableUpdatableSearcher(tmp_path)

    def test_failed_append_leaves_memory_unchanged(self, tmp_path):
        s = DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        with use_fault_plan("storage.oplog_append:torn:p=1"):
            with pytest.raises(TornWriteError):
                s.add(["never", "applied"])
        assert len(s) == 2
        s2 = DurableUpdatableSearcher(tmp_path)
        assert s2.replayed == 2
