"""Tests for save format 4: one compact JSON array per saved set.

A ``collection.jsonl`` line is ``[payload, token, …]`` and a durable tail
line ``["add", payload, token, …]``, each token written once per count in
the order of the record's ``counts``.  Every way a set enters a
collection maps its tokens through the collection's one string per
token, so a token held by many sets is one object.
"""

import ast
import hashlib
import json
import tempfile
import zlib
from pathlib import Path

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
from repro.core.updatable import UpdatableSearcher
from repro.storage.persist import FORMAT_VERSION, DurableUpdatableSearcher

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

TOKENS = st.text(max_size=5) | st.sampled_from(
    ['"', "\\", '\\"', "\U0001f600", "a b", "\x85", "\n", "\x00"]
)
PAYLOADS = (
    st.none()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5)
    | st.lists(st.integers(), max_size=3)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=3)
)
SETS = st.lists(
    st.tuples(st.lists(TOKENS, max_size=6), PAYLOADS), max_size=8
)


def _stored(collection):
    """Each record's counts, in key order and with multiplicity, and its
    payload."""
    return [(list(rec.counts.items()), rec.payload) for rec in collection]


def _collection(sets):
    collection = SetCollection()
    for tokens, payload in sets:
        collection.add(tokens, payload)
    return collection.freeze()


def _assert_one_object_per_token(collection):
    first = {}
    for rec in collection:
        for token in rec.counts:
            assert first.setdefault(token, token) is token


def _equal_strings(*names):
    """Fresh string objects, so that equal tokens start out distinct."""
    return ["".join(list(name)) for name in names]


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(sets=SETS)
    def test_save_and_load(self, sets):
        collection = _collection(sets)
        with tempfile.TemporaryDirectory() as tmp:
            save_searcher(SetSimilaritySearcher(collection), tmp)
            loaded = load_searcher(tmp)
        assert _stored(loaded.collection) == _stored(collection)
        _assert_one_object_per_token(loaded.collection)

    @settings(max_examples=40, deadline=None)
    @given(sets=SETS)
    def test_durable_tail(self, sets):
        with tempfile.TemporaryDirectory() as tmp:
            live = DurableUpdatableSearcher(tmp)
            for tokens, payload in sets:
                live.add(tokens, payload)
            reopened = DurableUpdatableSearcher(tmp)
            loaded = load_searcher(tmp)
        assert reopened.recovery_report.replayed == len(sets)
        assert _stored(reopened.collection) == _stored(live.collection)
        assert _stored(loaded.collection) == _stored(live.collection)
        _assert_one_object_per_token(reopened.collection)

    def test_multiset_line_repeats_each_token_per_count(self, tmp_path):
        collection = SetCollection.from_token_sets(
            [["b", "a", "b", "c", "b"]], payloads=[{"id": 7}]
        )
        save_searcher(SetSimilaritySearcher(collection), tmp_path)
        line = (tmp_path / "gen-000001" / "collection.jsonl").read_bytes()
        assert line == b'[{"id":7},"b","b","b","a","c"]\n'
        loaded = load_searcher(tmp_path)
        assert list(loaded.collection[0].counts.items()) == [
            ("b", 3), ("a", 1), ("c", 1)
        ]

    def test_non_ascii_is_written_as_utf8(self, tmp_path):
        collection = SetCollection.from_token_sets([["é", "\U0001f600"]])
        save_searcher(SetSimilaritySearcher(collection), tmp_path)
        line = (tmp_path / "gen-000001" / "collection.jsonl").read_bytes()
        assert line == '[null,"é","\U0001f600"]\n'.encode("utf-8")

    def test_counts_that_are_not_positive_ints_are_not_saved(self, tmp_path):
        collection = SetCollection()
        collection.add_counts({"a": 0, "b": 2})
        collection.freeze()
        with pytest.raises(StorageError, match="positive integers"):
            save_searcher(SetSimilaritySearcher(collection), tmp_path)


# ----------------------------------------------------------------------
# damage
# ----------------------------------------------------------------------
def _rewrite_collection(directory, line):
    """Replace the first saved line, with a checksum that matches."""
    generation = directory / "gen-000001"
    lines = (generation / "collection.jsonl").read_text().split("\n")
    lines[0] = line
    data = "\n".join(lines).encode("utf-8")
    (generation / "collection.jsonl").write_bytes(data)
    manifest_path = generation / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["checksums"]["collection.jsonl"] = hashlib.sha256(
        data
    ).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def _frame(record):
    body = json.dumps(record).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body), body)


DAMAGED_LINES = {
    "object": '{"counts": {"data": 1}, "payload": null}',
    "empty-array": "[]",
    "number-token": '[null, "data", 1]',
    "null-token": '[null, "data", null]',
    "list-token": '[null, ["data"]]',
    "scalar": '"data"',
    "does-not-parse": '[null, "data"',
}

DAMAGED_FRAMES = {
    "object": {"kind": "add", "counts": {"data": 1}, "payload": None},
    "empty-array": [],
    "no-payload": ["add"],
    "number-token": ["add", None, "data", 1],
    "null-token": ["add", None, None],
}


class TestDamage:
    @pytest.mark.parametrize("name", sorted(DAMAGED_LINES))
    def test_collection_line(self, legacy_index, name):
        directory = legacy_index("v4")
        _rewrite_collection(directory, DAMAGED_LINES[name])
        with pytest.raises(CorruptIndexError) as info:
            load_searcher(directory)
        assert info.value.report.components() == ["collection"]

    @pytest.mark.parametrize("name", sorted(DAMAGED_FRAMES))
    def test_tail_line(self, legacy_index, name):
        directory = legacy_index("v4")
        tail = directory / "gen-000001" / "inserts.jsonl"
        tail.write_bytes(_frame(DAMAGED_FRAMES[name]))
        with pytest.raises(CorruptIndexError) as info:
            load_searcher(directory)
        assert info.value.report.components() == ["inserts"]


class TestNewerFormat:
    """A format this version cannot read is not damage: the load raises
    and leaves every directory and ``CURRENT`` as they were."""

    def _two_generations(self, tmp_path, version):
        directory = tmp_path / "idx"
        searcher = SetSimilaritySearcher(
            SetCollection.from_token_sets([["a", "b"], ["b", "c"]])
        )
        save_searcher(searcher, directory)
        save_searcher(searcher, directory)
        manifest_path = directory / "gen-000002" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = version
        manifest_path.write_text(json.dumps(manifest))
        return directory

    @pytest.mark.parametrize(
        "load", [load_searcher, DurableUpdatableSearcher]
    )
    def test_newer_version_raises_and_renames_nothing(self, tmp_path, load):
        directory = self._two_generations(tmp_path, FORMAT_VERSION + 1)
        listing = sorted(p.name for p in directory.iterdir())
        current = (directory / "CURRENT").read_bytes()
        with pytest.raises(StorageError, match="newer") as info:
            load(directory)
        assert not isinstance(info.value, CorruptIndexError)
        assert sorted(p.name for p in directory.iterdir()) == listing
        assert (directory / "CURRENT").read_bytes() == current

    @pytest.mark.parametrize("version", [True, "4", 0, -1, None])
    def test_other_versions_stay_manifest_damage(self, tmp_path, version):
        directory = self._two_generations(tmp_path, version)
        report = load_searcher(directory).recovery_report
        assert report.components() == ["manifest"]
        assert report.quarantined == ["gen-000002.corrupt"]
        assert report.loaded_generation == "gen-000001"


# ----------------------------------------------------------------------
# one string per token
# ----------------------------------------------------------------------
class TestOneStringPerToken:
    def _sets(self):
        return [
            _equal_strings("data", "cleaning"),
            _equal_strings("data", "query", "data"),
            _equal_strings("query", "cleaning"),
        ]

    def test_build(self):
        sets = self._sets()
        assert sets[0][0] is not sets[1][0]  # equal, not yet shared
        collection = SetCollection.from_token_sets(sets)
        _assert_one_object_per_token(collection)

    def test_load_of_every_format(self, tmp_path, legacy_index):
        save_searcher(
            SetSimilaritySearcher(SetCollection.from_token_sets(self._sets())),
            tmp_path / "idx",
        )
        _assert_one_object_per_token(
            load_searcher(tmp_path / "idx").collection
        )
        for name in ("v1", "v2", "v3", "v4"):
            loaded = load_searcher(legacy_index(name))
            _assert_one_object_per_token(loaded.collection)

    def test_tail_replay(self, tmp_path):
        durable = DurableUpdatableSearcher(tmp_path, initial_sets=self._sets())
        for tokens in self._sets():
            durable.add(tokens)
        reopened = DurableUpdatableSearcher(tmp_path)
        assert reopened.recovery_report.replayed == 3
        _assert_one_object_per_token(reopened.collection)

    def test_updatable_add_and_add_after_rebuild(self):
        live = UpdatableSearcher(self._sets(), auto_rebuild_fraction=1.0)
        live.add(_equal_strings("data", "new"))
        _assert_one_object_per_token(live.collection)
        live.rebuild()
        live.add(_equal_strings("new", "cleaning", "query"))
        assert live.epoch == 1
        _assert_one_object_per_token(live.collection)

    def test_src_never_interns(self):
        # sys.intern makes a string immortal on CPython 3.12, so the
        # tokens of dropped sets would never be freed.
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    assert node.attr != "intern", path
                if isinstance(node, ast.ImportFrom) and node.module == "sys":
                    names = [alias.name for alias in node.names]
                    assert "intern" not in names, path
