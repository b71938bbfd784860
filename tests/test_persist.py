"""Tests for index persistence (save_searcher / load_searcher)."""

import json
import shutil

import pytest

from repro import (
    SetCollection,
    SetSimilaritySearcher,
    StringMatcher,
    load_searcher,
    save_searcher,
)
from repro.core.errors import CorruptIndexError, StorageError


@pytest.fixture()
def saved(tmp_path, searcher):
    manifest = save_searcher(searcher, tmp_path / "idx")
    # The default layout is generational: the payload files live under
    # the first generation directory, named by CURRENT.
    return tmp_path / "idx" / "gen-000001", manifest, searcher


def _save_flat(searcher, directory):
    """A version-1-style flat directory: one generation's files at the top
    level, with no ``CURRENT`` pointer."""
    manifest = save_searcher(searcher, directory)
    generation = directory / "gen-000001"
    for name in ("manifest.json", "collection.jsonl"):
        shutil.move(str(generation / name), str(directory / name))
    generation.rmdir()
    (directory / "CURRENT").unlink()
    return manifest


class TestRoundTrip:
    def test_manifest_counts(self, saved):
        path, manifest, searcher = saved
        assert manifest["num_sets"] == len(searcher.collection)
        assert manifest["num_postings"] == searcher.index.num_postings()

    def test_files_written(self, saved):
        path, _m, _s = saved
        assert (path / "manifest.json").exists()
        assert (path / "collection.jsonl").exists()
        # The lists are a function of the collection: none are stored.
        assert not (path / "postings.bin").exists()
        assert (path.parent / "CURRENT").read_text().strip() == path.name

    def test_loaded_searcher_answers_match(self, saved, small_vocab):
        path, _m, original = saved
        loaded = load_searcher(path.parent)
        import random

        rng = random.Random(77)
        for _ in range(10):
            q = rng.sample(small_vocab, rng.randint(1, 5))
            a = {(r.set_id, round(r.score, 9))
                 for r in original.search(q, 0.5).results}
            b = {(r.set_id, round(r.score, 9))
                 for r in loaded.search(q, 0.5).results}
            assert a == b

    def test_payloads_survive(self, tmp_path):
        matcher = StringMatcher(["alpha beta", "gamma delta"])
        save_searcher(matcher.searcher, tmp_path / "m")
        loaded = load_searcher(tmp_path / "m")
        assert loaded.collection.payload(0) == "alpha beta"
        assert loaded.collection.payload(1) == "gamma delta"

    def test_saved_lines_hold_counts_and_payload(self, saved):
        # Each set is saved once, as its counts: no "tokens" beside them.
        path, _m, searcher = saved
        lines = (path / "collection.jsonl").read_text().splitlines()
        assert len(lines) == len(searcher.collection)
        for line, rec in zip(lines, searcher.collection):
            record = json.loads(line)
            assert list(record) == ["counts", "payload"]
            assert record["counts"] == rec.counts

    def test_multiset_counts_survive(self, tmp_path):
        coll = SetCollection.from_token_sets([["a", "a", "b"]])
        save_searcher(SetSimilaritySearcher(coll), tmp_path / "x")
        loaded = load_searcher(tmp_path / "x")
        assert loaded.collection[0].counts == {"a": 2, "b": 1}

    def test_component_flags_respected(self, tmp_path, small_collection):
        nsl = SetSimilaritySearcher(small_collection, with_skip_lists=False)
        manifest = save_searcher(nsl, tmp_path / "nsl")
        loaded = load_searcher(tmp_path / "nsl")
        assert not loaded.index.with_skip_lists
        # Hash indexes and id lists are always available (built on first
        # use), so the manifest no longer records them.
        assert "with_id_lists" not in manifest
        assert "with_hash_index" not in manifest

    def test_loaded_index_builds_aux_structures_on_first_use(self, saved):
        path, _m, original = saved
        loaded = load_searcher(path.parent)
        lists = loaded.index._postings
        assert all(p.hash is None and p.id_file is None for p in lists.values())
        token = next(iter(sorted(lists)))
        set_id = loaded.index.postings(token)[0][1]
        assert loaded.index.probe(token, set_id) == original.index.probe(
            token, set_id
        )
        assert lists[token].hash is not None and lists[token].id_file is None

    def test_manifest_without_aux_structures_loads(self, saved):
        # Earlier versions could save an index with both structures
        # switched off and wrote both keys false; the loader ignores them
        # and builds the structures on first use.
        path, _m, original = saved
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["with_id_lists"] = manifest["with_hash_index"] = False
        (path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_searcher(path.parent)
        token = sorted(loaded.index.tokens())[0]
        assert len(loaded.index.id_cursor(token)) == original.index.list_length(
            token
        )


class TestUpdatableSearcher:
    def test_pending_inserts_load_as_a_rebuild(self, tmp_path):
        from repro.core.updatable import UpdatableSearcher

        live = UpdatableSearcher([["b"], ["a"], ["a"], ["a"], ["a"]])
        live.add(["a"])  # scored under the pinned five-set statistics
        assert live.pending == 1
        save_searcher(live, tmp_path / "u")
        loaded = load_searcher(tmp_path / "u")
        assert loaded.recovery_report.clean
        live.rebuild()
        for tokens in (["a"], ["a", "b"]):
            assert [(r.set_id, round(r.score, 9))
                    for r in loaded.search(tokens, 0.3).results] == [
                (r.set_id, round(r.score, 9))
                for r in live.search(tokens, 0.3).results
            ]


class TestFlatLayout:
    def test_flat_round_trip(self, tmp_path, searcher, small_vocab):
        _save_flat(searcher, tmp_path / "flat")
        assert (tmp_path / "flat" / "manifest.json").exists()
        assert not (tmp_path / "flat" / "CURRENT").exists()
        loaded = load_searcher(tmp_path / "flat")
        assert loaded.recovery_report.legacy
        q = small_vocab[:3]
        a = {(r.set_id, round(r.score, 9))
             for r in searcher.search(q, 0.5).results}
        b = {(r.set_id, round(r.score, 9))
             for r in loaded.search(q, 0.5).results}
        assert a == b

    def test_legacy_v1_manifest_without_checksums_loads(self, tmp_path):
        # A directory written by the version-1 code has no checksum map;
        # the loader must still accept it (postings verification covers
        # it) rather than demand fields the old writer never produced.
        coll = SetCollection.from_token_sets([["a", "b"], ["b", "c"]])
        _save_flat(SetSimilaritySearcher(coll), tmp_path / "v1")
        manifest = json.loads((tmp_path / "v1" / "manifest.json").read_text())
        manifest["format_version"] = 1
        del manifest["checksums"]
        (tmp_path / "v1" / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_searcher(tmp_path / "v1")
        assert len(loaded.collection) == 2

    def test_successive_saves_advance_generations(self, tmp_path, searcher):
        save_searcher(searcher, tmp_path / "g")
        save_searcher(searcher, tmp_path / "g")
        assert (tmp_path / "g" / "gen-000002").is_dir()
        assert (
            tmp_path / "g" / "CURRENT"
        ).read_text().strip() == "gen-000002"
        loaded = load_searcher(tmp_path / "g")
        assert loaded.recovery_report.loaded_generation == "gen-000002"


class TestFailureModes:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            load_searcher(tmp_path)

    def test_wrong_version(self, saved):
        path, _m, _s = saved
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            load_searcher(path.parent)

    def test_truncated_collection_detected(self, saved):
        path, _m, _s = saved
        lines = (path / "collection.jsonl").read_text().splitlines()
        (path / "collection.jsonl").write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(StorageError):
            load_searcher(path.parent)

    @pytest.mark.parametrize("key", ["num_tokens", "num_postings"])
    def test_manifest_count_checked_against_the_build(self, saved, key):
        path, _m, _s = saved
        manifest = json.loads((path / "manifest.json").read_text())
        manifest[key] += 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptIndexError) as info:
            load_searcher(path.parent)
        assert info.value.report.components() == ["manifest"]

    def test_corrupted_postings_detected(self, legacy_index):
        path = legacy_index("v2") / "gen-000001"
        data = bytearray((path / "postings.bin").read_bytes())
        # Flip a byte deep inside a posting payload.
        data[len(data) // 2] ^= 0xFF
        (path / "postings.bin").write_bytes(bytes(data))
        with pytest.raises(StorageError):
            load_searcher(path.parent)

    def test_unserializable_payload_rejected(self, tmp_path):
        coll = SetCollection()
        coll.add(["a"], payload=object())
        coll.freeze()
        with pytest.raises(StorageError):
            save_searcher(SetSimilaritySearcher(coll), tmp_path / "bad")

    def test_non_string_tokens_rejected_before_writing(self, tmp_path):
        # JSON would save int tokens as strings, and the loaded index
        # would then miss every query for the ints.
        directory = tmp_path / "ints"
        good = SetSimilaritySearcher(SetCollection.from_token_sets([["a"]]))
        save_searcher(good, directory)
        ints = SetSimilaritySearcher(
            SetCollection.from_token_sets([[1, 2], [2, 3], [3, 4, 5]])
        )
        assert [r.set_id for r in ints.search([1, 2], 0.5).results] == [0]
        with pytest.raises(StorageError, match="must be strings"):
            save_searcher(ints, directory)
        assert sorted(p.name for p in directory.iterdir()) == [
            "CURRENT", "gen-000001"
        ]
        assert len(load_searcher(directory).collection) == 1

    def test_random_corruption_never_silent(self, legacy_index):
        """Fuzz: any single byte flip in a format-2 postings.bin either
        leaves the load equivalent (flipped padding is impossible here, so
        in practice it raises) or raises StorageError — never a silently
        different index."""
        import random

        directory = legacy_index("v2")
        postings = directory / "gen-000001" / "postings.bin"
        original = postings.read_bytes()
        reference = load_searcher(directory)
        query = ["data", "cleaning"]
        ref_answers = {
            (r.set_id, round(r.score, 9))
            for r in reference.search(query, 0.3).results
        }
        rng = random.Random(0)
        raised = 0
        for _ in range(30):
            data = bytearray(original)
            pos = rng.randrange(len(data))
            data[pos] ^= 1 << rng.randrange(8)
            postings.write_bytes(bytes(data))
            try:
                loaded = load_searcher(directory)
            except StorageError:
                raised += 1
                continue
            got = {
                (r.set_id, round(r.score, 9))
                for r in loaded.search(query, 0.3).results
            }
            assert got == ref_answers
        assert raised > 0  # the verifier actually fires
        postings.write_bytes(original)
