"""Crash-recovery tests: corruption, torn writes, and durable inserts.

The contract under test, per ``docs/robustness.md``:

* a load of a damaged directory either answers *identically* to the
  undamaged index or raises :class:`CorruptIndexError` whose
  :class:`RecoveryReport` names the damaged component — it never
  returns wrong scores (hypothesis property below);
* a process killed at **any** injected point during ``save_searcher``
  leaves the directory loadable as the old or the new generation;
* a damaged current generation is quarantined and the newest intact
  one takes over, with ``CURRENT`` repaired; a read that raises renames
  nothing;
* a generation's ``inserts.jsonl`` tail replays its verified prefix;
  anything from the first torn or corrupt line on is dropped, reported
  and cut off by the next append, and no acknowledged insert is lost.
"""

import json
import zlib

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
from repro.storage.persist import (
    FORMAT_VERSION,
    DurableUpdatableSearcher,
    RecoveryReport,
)

TOKEN_SETS = [
    ["data", "cleaning", "matters"],
    ["data", "cleaning"],
    ["query", "processing"],
    ["set", "similarity", "query", "processing"],
    ["data", "quality", "matters"],
]

QUERY = ["data", "cleaning", "quality"]

#: Components a RecoveryReport may blame for a single-file corruption.
KNOWN_COMPONENTS = {"manifest", "collection", "postings", "pointer"}


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
        listing = sorted(p.name for p in path.iterdir())
        try:
            try:
                loaded = load_searcher(path)
            except CorruptIndexError as exc:
                assert isinstance(exc.report, RecoveryReport)
                assert exc.report.components()  # damage was attributed
                assert set(exc.report.components()) <= KNOWN_COMPONENTS
                return
            except StorageError:
                # A flip of the version digit to a newer format: the
                # load refuses it as unreadable, not as damage, and
                # renames nothing.
                version = json.loads(bytes(data))["format_version"]
                assert file_index == 0 and version > FORMAT_VERSION
                assert sorted(p.name for p in path.iterdir()) == listing
                assert (path / "CURRENT").read_bytes() == current_before
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


def _oracle_answers(token_sets, threshold=0.3):
    oracle = SetSimilaritySearcher(SetCollection.from_token_sets(token_sets))
    return {
        (r.set_id, round(r.score, 9))
        for r in oracle.brute_force(QUERY, threshold)
    }


def _tail(directory):
    name = (directory / "CURRENT").read_text().strip()
    return directory / name / "inserts.jsonl"


def _frame(record):
    body = json.dumps(record).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body), body)


class TestInsertsTail:
    """A generation's ``inserts.jsonl``: CRC-framed, fsynced lines that a
    load replays up to the first torn or corrupt one."""

    def test_round_trip(self, tmp_path):
        s = DurableUpdatableSearcher(tmp_path)
        for i in range(5):
            s.add(["a", str(i)], payload=i)
        assert len(_tail(tmp_path).read_bytes().splitlines()) == 5
        s2 = DurableUpdatableSearcher(tmp_path)
        report = s2.recovery_report
        assert (report.replayed, report.dropped) == (5, 0) and report.clean
        assert [(r.counts, r.payload) for r in s2.collection] == [
            ({"a": 1, str(i): 1}, i) for i in range(5)
        ]

    def test_torn_tail_dropped(self, tmp_path):
        s = DurableUpdatableSearcher(tmp_path)
        s.add(["a"])
        s.add(["b"])
        with open(_tail(tmp_path), "ab") as fh:
            fh.write(b'00000000 {"kind": "add", "cou')  # torn append
        report = load_searcher(tmp_path).recovery_report
        assert (report.replayed, report.dropped) == (2, 1)
        assert report.components() == ["inserts"]

    def test_mid_tail_corruption_drops_the_rest(self, tmp_path):
        s = DurableUpdatableSearcher(tmp_path)
        for name in ("a", "b", "c"):
            s.add([name])
        tail = _tail(tmp_path)
        lines = tail.read_bytes().splitlines(keepends=True)
        lines[1] = b"deadbeef" + lines[1][8:]  # break record 2's CRC
        tail.write_bytes(b"".join(lines))
        s2 = DurableUpdatableSearcher(tmp_path)
        # Everything after the first bad record is suspect.
        assert [r.counts for r in s2.collection] == [{"a": 1}]
        assert s2.recovery_report.dropped == 2
        s2.add(["d"])  # lands after the verified prefix
        s3 = DurableUpdatableSearcher(tmp_path)
        assert [r.counts for r in s3.collection] == [{"a": 1}, {"d": 1}]
        assert (s3.recovery_report.replayed, s3.recovery_report.dropped) == (
            2,
            0,
        )

    def test_compact_writes_a_generation_without_tail(self, tmp_path):
        s = DurableUpdatableSearcher(tmp_path)
        for i in range(10):
            s.add([str(i)])
        before = _tail(tmp_path)
        s.compact()
        assert _tail(tmp_path) != before and not _tail(tmp_path).exists()
        s.add(["only"])
        s2 = DurableUpdatableSearcher(tmp_path)
        assert (s2.recovery_report.replayed, len(s2)) == (1, 11)

    @pytest.mark.parametrize("compactions", [0, 1])
    @pytest.mark.parametrize(
        "site",
        ["persist.read_manifest", "persist.read_collection",
         "persist.read_inserts"],
    )
    def test_failed_read_changes_nothing(self, tmp_path, site, compactions):
        # A read that raises proves no damage: with an older generation
        # to fall back to, a fallback would lose the acknowledged adds.
        s = DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        for _ in range(compactions):
            s.add(["only", "before"])
            s.compact()
        s.add(TOKEN_SETS[2])
        s.add(TOKEN_SETS[3])
        listing = sorted(p.name for p in tmp_path.iterdir())
        current = (tmp_path / "CURRENT").read_bytes()
        tail = _tail(tmp_path).read_bytes()
        for load in (DurableUpdatableSearcher, load_searcher):
            with use_fault_plan(f"{site}:transient:count=1"):
                with pytest.raises(OSError):
                    load(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == listing
        assert (tmp_path / "CURRENT").read_bytes() == current
        assert _tail(tmp_path).read_bytes() == tail
        s2 = DurableUpdatableSearcher(tmp_path)
        assert s2.recovery_report.clean
        assert len(s2) == len(s) == 4 + compactions

    def test_unterminated_last_frame_is_torn(self, tmp_path):
        s = DurableUpdatableSearcher(tmp_path)
        for name in ("a", "b", "c"):
            s.add([name])
        tail = _tail(tmp_path)
        tail.write_bytes(tail.read_bytes()[:-1])  # only the "\n" is lost
        s2 = DurableUpdatableSearcher(tmp_path)
        report = s2.recovery_report
        assert (report.replayed, report.dropped) == (2, 1)
        s2.add(["acknowledged"])
        s3 = DurableUpdatableSearcher(tmp_path)
        assert (s3.recovery_report.replayed, s3.recovery_report.dropped) == (
            3,
            0,
        )
        assert [r.counts for r in s3.collection] == [
            {"a": 1}, {"b": 1}, {"acknowledged": 1}
        ]


class TestDurableUpdatableSearcher:
    def test_reload_replays_everything(self, tmp_path):
        s = DurableUpdatableSearcher(
            tmp_path, initial_sets=TOKEN_SETS[:3]
        )
        assert not _tail(tmp_path).exists()  # initial sets: one save
        s.add(TOKEN_SETS[3])
        s.add(TOKEN_SETS[4], payload="five")

        s2 = DurableUpdatableSearcher(tmp_path)
        # The generation holds 3 sets; a restart reads only the 2 added.
        assert s2.recovery_report.replayed == 2
        assert s2.recovery_report.dropped == 0
        assert s2.epoch == 0 and s2.pending == 0
        assert _answers(s2) == _oracle_answers(TOKEN_SETS)
        assert _answers(load_searcher(tmp_path)) == _answers(s2)
        assert s2.payload(4) == "five"

    def test_torn_tail_dropped_and_compacted(self, tmp_path):
        s = DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        s.add(TOKEN_SETS[2])
        with open(_tail(tmp_path), "ab") as fh:
            fh.write(b'deadbeef {"kind": "add"')  # crash mid-append
        torn = _tail(tmp_path).read_bytes()
        s2 = DurableUpdatableSearcher(tmp_path)
        assert s2.recovery_report.replayed == 1
        assert s2.recovery_report.dropped == 1
        # A load writes nothing; the next append cuts the tear off, so
        # a third load sees a clean tail.
        assert load_searcher(tmp_path).recovery_report.dropped == 1
        assert _tail(tmp_path).read_bytes() == torn
        s2.add(TOKEN_SETS[3])
        s3 = DurableUpdatableSearcher(tmp_path)
        assert s3.recovery_report.clean and len(s3) == 4
        assert s3.recovery_report.replayed == 2

    def test_compact_replays_the_same_sets(self, tmp_path):
        s = DurableUpdatableSearcher(
            tmp_path, initial_sets=TOKEN_SETS[:3], auto_rebuild_fraction=1.0
        )
        s.add(["data", "data", "cleaning"], payload="dup")  # a multiset
        s.add(TOKEN_SETS[3])
        assert s.compact()["num_sets"] == 5
        s2 = DurableUpdatableSearcher(tmp_path)
        assert s2.recovery_report.replayed == 0
        assert [(r.counts, r.payload) for r in s2.collection] == [
            (r.counts, r.payload) for r in s.collection
        ]
        s.rebuild()
        assert _answers(s2) == _answers(s)

    def test_skip_list_flag_is_kept(self, tmp_path):
        save_searcher(
            SetSimilaritySearcher(
                SetCollection.from_token_sets(TOKEN_SETS[:2]),
                with_skip_lists=False,
            ),
            tmp_path,
        )
        s = DurableUpdatableSearcher(tmp_path)
        s.add(TOKEN_SETS[2])
        s.rebuild()
        assert not s.index.with_skip_lists
        assert s.compact()["with_skip_lists"] is False
        assert not DurableUpdatableSearcher(tmp_path).index.with_skip_lists

    def test_double_apply_guard(self, tmp_path):
        DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        with pytest.raises(StorageError):
            DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])

    def test_unknown_op_kind_rejected(self, tmp_path):
        DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        _tail(tmp_path).write_bytes(_frame(["drop-table", None, "a"]))
        with pytest.raises(StorageError, match="drop-table"):
            DurableUpdatableSearcher(tmp_path)

    def test_failed_append_leaves_memory_unchanged(self, tmp_path):
        s = DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        with use_fault_plan("persist.append_insert:torn:p=1"):
            with pytest.raises(TornWriteError):
                s.add(["never", "applied"])
        assert len(s) == 2
        s2 = DurableUpdatableSearcher(tmp_path)
        assert len(s2) == 2 and s2.recovery_report.replayed == 0

    @pytest.mark.parametrize(
        "tokens,error", [(["x", 3], TypeError), ([3], StorageError)]
    )
    def test_rejected_set_is_not_appended(self, tmp_path, tokens, error):
        s = DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        s.add(TOKEN_SETS[2])
        before = _tail(tmp_path).read_bytes()
        with pytest.raises(error):
            s.add(tokens)
        assert _tail(tmp_path).read_bytes() == before and len(s) == 3
        s2 = DurableUpdatableSearcher(tmp_path)
        assert [r.counts for r in s2.collection] == [
            r.counts for r in s.collection
        ]

    def test_inserts_follow_current(self, tmp_path):
        # The sixth fsync of a save is the directory's, after CURRENT
        # already names the new generation: later inserts go to its tail.
        s = DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        with use_fault_plan("persist.fsync:torn:count=1:after=5"):
            with pytest.raises(TornWriteError):
                s.compact()
        assert (tmp_path / "CURRENT").read_text().strip() == "gen-000002"
        s.add(TOKEN_SETS[2])
        s2 = DurableUpdatableSearcher(tmp_path)
        assert s2.recovery_report.replayed == 1 and len(s2) == 3
        # So do inserts after a save that compact() did not make.
        save_searcher(s2, tmp_path)
        s2.add(TOKEN_SETS[3])
        s3 = DurableUpdatableSearcher(tmp_path)
        assert s3.recovery_report.replayed == 1 and len(s3) == 4

    def test_generations_are_bounded(self, tmp_path):
        s = DurableUpdatableSearcher(tmp_path, initial_sets=TOKEN_SETS[:2])
        for tokens in TOKEN_SETS[2:]:
            s.add(tokens)
            s.compact()
        s.compact()
        s.compact()
        generations = sorted(
            p.name for p in tmp_path.iterdir() if p.name.startswith("gen-")
        )
        assert generations == ["gen-000005", "gen-000006"]
        # A damaged current generation falls back to the other one.
        (tmp_path / "gen-000006" / "manifest.json").write_text("{not json")
        s2 = DurableUpdatableSearcher(tmp_path)
        assert s2.recovery_report.loaded_generation == "gen-000005"
        assert s2.recovery_report.quarantined == ["gen-000006.corrupt"]
        assert _answers(s2) == _oracle_answers(TOKEN_SETS)
        s2.compact()
        assert (tmp_path / "gen-000006.corrupt").is_dir()

    @pytest.mark.parametrize("name", ["v1", "v2", "v3"])
    def test_older_format_is_saved_before_inserts(self, legacy_index, name):
        # postings.bin pins the saved sets' lists, and a tail holds the
        # line shape of its generation's format, so an older format's
        # directory gets a current format-4 generation before any insert.
        directory = legacy_index(name)
        s = DurableUpdatableSearcher(directory)
        assert s.recovery_report.format_version == int(name[1])
        tail = _tail(directory)
        manifest = json.loads((tail.parent / "manifest.json").read_text())
        assert manifest["format_version"] == 4
        assert not tail.exists()
        s.add(["data", "quality"])
        assert tail.read_bytes().split(b" ", 1)[1] == (
            b'["add",null,"data","quality"]\n'
        )
        s2 = DurableUpdatableSearcher(directory)
        assert s2.recovery_report.format_version == 4
        generation = directory / s2.recovery_report.loaded_generation
        assert generation == tail.parent
        assert s2.recovery_report.replayed == 1 and len(s2) == 7
