"""Tests for the index integrity validator."""

import pytest

from repro import SetCollection, SetSimilaritySearcher
from repro.core.errors import StorageError
from repro.core.validation import validate_index
from repro.storage.invlist import InvertedIndex


@pytest.fixture()
def coll():
    return SetCollection.from_token_sets(
        [["a", "b"], ["a", "c"], ["b", "c", "d"], ["a"]]
    )


class TestCleanIndexes:
    def test_full_index_valid(self, coll):
        report = validate_index(InvertedIndex(coll))
        assert report.valid
        assert report.checked_tokens == 4
        assert report.checked_postings == sum(len(r) for r in coll)

    def test_lean_index_valid(self, coll):
        # Hash indexes and id lists are checked too: validating builds
        # them on an index that had none.
        index = InvertedIndex(coll, with_skip_lists=False)
        assert validate_index(index).valid
        assert all(
            p.hash is not None and p.id_file is not None
            for p in index._postings.values()
        )

    def test_session_corpus_valid(self, searcher):
        assert validate_index(searcher.index).valid

    def test_loaded_index_valid(self, coll, tmp_path):
        from repro import load_searcher, save_searcher

        save_searcher(SetSimilaritySearcher(coll), tmp_path / "x")
        loaded = load_searcher(tmp_path / "x")
        assert validate_index(loaded.index).valid

    def test_raise_if_invalid_noop_when_clean(self, coll):
        validate_index(InvertedIndex(coll)).raise_if_invalid()


class TestCorruptionDetection:
    def _corrupt(self, index):
        return index._postings["a"].weight_file._records

    def test_out_of_order_detected(self, coll):
        index = InvertedIndex(coll)
        records = self._corrupt(index)
        records[0], records[-1] = records[-1], records[0]
        report = validate_index(index)
        assert not report.valid
        assert any("out of order" in e for e in report.errors)

    def test_length_mismatch_detected(self, coll):
        index = InvertedIndex(coll)
        records = self._corrupt(index)
        length, sid = records[0]
        records[0] = (length, sid)
        records[1] = (records[1][0] + 0.5, records[1][1])
        report = validate_index(index)
        assert not report.valid
        assert any("length" in e for e in report.errors)

    def test_phantom_posting_detected(self, coll):
        index = InvertedIndex(coll)
        # Set 2 = {b, c, d} does not contain 'a'; give its length so only
        # the membership check fires.
        self._corrupt(index).append((coll.length(2), 2))
        report = validate_index(index)
        assert any("phantom" in e for e in report.errors)

    def test_missing_posting_detected(self, coll):
        index = InvertedIndex(coll)
        self._corrupt(index).pop()  # drop one membership of 'a'
        report = validate_index(index)
        assert any("missing posting" in e for e in report.errors)

    def test_unknown_set_detected(self, coll):
        index = InvertedIndex(coll)
        self._corrupt(index).append((99.0, 999))
        report = validate_index(index)
        assert any("unknown set" in e for e in report.errors)

    def test_raise_if_invalid(self, coll):
        index = InvertedIndex(coll)
        self._corrupt(index).pop()
        with pytest.raises(StorageError):
            validate_index(index).raise_if_invalid()

    def test_report_repr(self, coll):
        report = validate_index(InvertedIndex(coll))
        assert "valid" in repr(report)
