"""Unit tests for repro.core.collection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DurableUpdatableSearcher,
    SetSimilaritySearcher,
    UpdatableSearcher,
    load_searcher,
    save_searcher,
)
from repro.core.collection import (
    SetCollection,
    SetRecord,
    collection_summary,
)
from repro.core.errors import ConfigurationError, IndexNotBuiltError
from repro.core.tokenize import WordTokenizer


class TestConstruction:
    def test_from_token_sets(self):
        coll = SetCollection.from_token_sets([["a", "b"], ["b", "c"]])
        assert len(coll) == 2
        assert coll[0].tokens == frozenset({"a", "b"})

    def test_from_token_sets_with_payloads(self):
        coll = SetCollection.from_token_sets(
            [["a"], ["b"]], payloads=["first", "second"]
        )
        assert coll.payload(1) == "second"

    def test_from_strings_default_payload(self):
        coll = SetCollection.from_strings(
            ["main st", "elm ave"], WordTokenizer()
        )
        assert coll.payload(0) == "main st"
        assert coll[0].tokens == frozenset({"main", "st"})

    def test_from_strings_payload_fn(self):
        coll = SetCollection.from_strings(
            ["x"], WordTokenizer(), payload_fn=lambda i, s: (i, s.upper())
        )
        assert coll.payload(0) == (0, "X")

    def test_incremental_ids_dense(self):
        coll = SetCollection()
        ids = [coll.add(["a"]), coll.add(["b"]), coll.add(["c"])]
        assert ids == [0, 1, 2]

    def test_add_after_freeze_rejected(self):
        coll = SetCollection()
        coll.add(["a"])
        coll.freeze()
        with pytest.raises(ConfigurationError):
            coll.add(["b"])

    def test_empty_set_allowed(self):
        coll = SetCollection()
        coll.add([])
        coll.freeze()
        assert len(coll[0]) == 0
        assert coll.length(0) == 0.0

    def test_multiset_counts_preserved(self):
        coll = SetCollection()
        coll.add(["a", "a", "b"])
        coll.freeze()
        assert coll[0].counts == {"a": 2, "b": 1}
        assert coll[0].tokens == frozenset({"a", "b"})


class TestStatistics:
    def test_stats_before_freeze_rejected(self):
        coll = SetCollection()
        coll.add(["a"])
        with pytest.raises(IndexNotBuiltError):
            _ = coll.stats

    def test_stats_cached(self):
        coll = SetCollection.from_token_sets([["a"], ["a", "b"]])
        assert coll.stats is coll.stats

    def test_lengths_indexed_by_id(self):
        coll = SetCollection.from_token_sets([["a"], ["a", "b"]])
        lengths = coll.lengths()
        assert len(lengths) == 2
        assert lengths[1] > lengths[0]

    def test_vocabulary_size(self):
        coll = SetCollection.from_token_sets([["a", "b"], ["b", "c"]])
        assert coll.vocabulary_size() == 3

    def test_iteration_yields_records(self):
        coll = SetCollection.from_token_sets([["a"], ["b"]])
        recs = list(coll)
        assert all(isinstance(r, SetRecord) for r in recs)
        assert [r.set_id for r in recs] == [0, 1]

    def test_token_sets_view(self):
        coll = SetCollection.from_token_sets([["a"], ["b"]])
        assert list(coll.token_sets()) == [
            frozenset({"a"}), frozenset({"b"}),
        ]


class TestSummary:
    def test_summary_fields(self):
        coll = SetCollection.from_token_sets([["a"], ["a", "b", "c"]])
        s = collection_summary(coll)
        assert s["num_sets"] == 2.0
        assert s["vocabulary"] == 3.0
        assert s["mean_set_size"] == pytest.approx(2.0)
        assert s["max_set_size"] == 3.0
        assert s["max_length"] >= s["mean_length"] > 0

    def test_summary_empty_collection(self):
        coll = SetCollection()
        coll.freeze()
        s = collection_summary(coll)
        assert s["num_sets"] == 0.0
        assert s["mean_set_size"] == 0.0

    def test_repr_states(self):
        coll = SetCollection()
        assert "building" in repr(coll)
        coll.freeze()
        assert "frozen" in repr(coll)


_TOKENS = st.lists(st.sampled_from("abcdef"), max_size=8)


class TestSingleRepresentation:
    """A record stores its set once, as ``counts``; ``tokens`` is a view."""

    @given(tokens=_TOKENS, other=_TOKENS)
    @settings(max_examples=200, deadline=None)
    def test_tokens_answer_like_a_frozenset(self, tokens, other):
        rec = SetCollection.from_token_sets([tokens])[0]
        view, expected = rec.tokens, frozenset(rec.counts)
        other = frozenset(other)
        for token in "abcdefg":
            assert (token in view) == (token in expected)
        assert len(view) == len(expected) == len(rec)
        assert len(list(view)) == len(expected)
        assert set(view) == expected
        assert sorted(view) == sorted(expected)
        assert view & other == expected & other == other & view
        assert view | other == expected | other == other | view
        assert (view == other) == (expected == other) == (other == view)
        assert view == expected and expected == view

    def test_record_slots(self):
        assert SetRecord.__slots__ == ("set_id", "counts", "payload")

    def test_no_record_holds_a_token_set(self, tmp_path):
        sets = [["a", "b"], ["b", "c", "c"]]
        built = SetSimilaritySearcher(SetCollection.from_token_sets(sets))
        save_searcher(built, tmp_path / "saved")
        live = UpdatableSearcher(sets)
        live.add(["c", "d"])
        durable = DurableUpdatableSearcher(tmp_path / "durable", sets)
        durable.add(["c", "d"])
        searchers = (
            built,
            load_searcher(tmp_path / "saved"),
            live,
            durable,
            DurableUpdatableSearcher(tmp_path / "durable"),
        )
        for searcher in searchers:
            for rec in searcher.collection:
                assert not hasattr(rec, "__dict__")
                assert type(rec.counts) is dict
                for slot in type(rec).__slots__:
                    value = getattr(rec, slot)
                    assert not isinstance(value, (set, frozenset)), slot
