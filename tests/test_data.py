"""Tests for synthetic data generation, error models, and workloads."""

import hashlib
import random

import pytest

from repro.core.errors import ConfigurationError
from repro.data.errors import (
    apply_modifications,
    make_all_levels,
    make_graded_dataset,
    modifications_for_level,
)
from repro.data.synthetic import (
    WordGenerator,
    WordLocation,
    build_word_collection,
    distinct_words,
    generate_dblp_records,
    generate_records,
    generate_word_database,
    word_occurrences,
    zipf_weights,
)
from repro.data.workloads import (
    all_bucket_workloads,
    bucket_words,
    make_workload,
)


class TestWordGenerator:
    def test_deterministic(self):
        a = WordGenerator(seed=1).vocabulary(50)
        b = WordGenerator(seed=1).vocabulary(50)
        assert a == b

    def test_different_seeds_differ(self):
        assert WordGenerator(seed=1).vocabulary(50) != WordGenerator(
            seed=2
        ).vocabulary(50)

    def test_distinct(self):
        vocab = WordGenerator(seed=3).vocabulary(200)
        assert len(set(vocab)) == 200

    def test_words_nonempty_lowercase(self):
        for w in WordGenerator(seed=4).vocabulary(100):
            assert w and w == w.lower()


class TestRecords:
    def test_shape(self):
        records = generate_records(100, vocabulary_size=50, seed=9)
        assert len(records) == 100
        for r in records:
            assert 2 <= len(r.split()) <= 4

    def test_zipf_weights(self):
        w = zipf_weights(4)
        assert w == [1.0, 0.5, pytest.approx(1 / 3), 0.25]

    def test_zipf_skew_visible_in_frequencies(self):
        from collections import Counter

        records = generate_records(2000, vocabulary_size=200, seed=2)
        counts = Counter(w for r in records for w in r.split())
        freqs = sorted(counts.values(), reverse=True)
        # Head of the distribution dominates the tail.
        assert freqs[0] > 10 * freqs[-1]

    def test_word_occurrences_locations(self):
        occ = word_occurrences(["a b", "c"])
        assert [(o.word, o.row, o.position) for o in occ] == [
            ("a", 0, 0), ("b", 0, 1), ("c", 1, 0),
        ]

    def test_packed_location_roundtrip(self):
        loc = WordLocation("x", row=123456, position=7)
        packed = loc.packed()
        assert packed >> 24 == 123456
        assert packed & 0xFFFFFF == 7

    def test_distinct_words_order(self):
        assert distinct_words(["b a", "a c"]) == ["b", "a", "c"]

    # Pinned record for record: corpora, counters and benchmark results
    # are all keyed by these streams, so a faster generator must keep them.
    @pytest.mark.parametrize(
        "num_records, num_authors, seed, digest, head",
        [
            (
                500, 800, 2008,
                "4fc2e314d0dcebb0c4a57027f7e836"
                "3af55941223308375d121ef851e148313e",
                "fieldsteins ing databases indexing approximate databases",
            ),
            (
                300, 50, 7,
                "22f6cdb61a5c27020cc701b0e8dacf"
                "9782e311d99817e185736f4d555c489ec1",
                "madorerel mioron jzoman efficient joins robust scalable "
                "efficient indexing scalable similarity",
            ),
        ],
    )
    def test_dblp_records_pinned(
        self, num_records, num_authors, seed, digest, head
    ):
        records = generate_dblp_records(
            num_records, num_authors=num_authors, seed=seed
        )
        assert len(records) == num_records
        assert records[0] == head
        joined = "\n".join(records).encode()
        assert hashlib.sha256(joined).hexdigest() == digest


class TestWordDatabase:
    def test_collection_payloads_are_words(self):
        coll, words = generate_word_database(
            num_records=100, vocabulary_size=80, seed=5
        )
        assert len(coll) == len(words)
        assert coll.payload(0) == words[0]

    def test_grams_are_q3(self):
        coll, words = generate_word_database(
            num_records=50, vocabulary_size=40, seed=5
        )
        rec = coll[0]
        assert all(len(g) == 3 for g in rec.tokens)

    def test_build_word_collection_custom_q(self):
        coll = build_word_collection(["abc", "abcd"], q=2)
        assert all(len(g) == 2 for g in coll[0].tokens)


class TestModifications:
    def test_zero_is_identity(self):
        rng = random.Random(0)
        assert apply_modifications("hello", 0, rng) == "hello"

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_modifications("x", -1, random.Random(0))

    def test_single_edit_changes_length_or_content(self):
        rng = random.Random(1)
        for _ in range(50):
            out = apply_modifications("street", 1, rng)
            assert abs(len(out) - 6) <= 1

    def test_deterministic_with_seed(self):
        a = apply_modifications("boulevard", 3, random.Random(42))
        b = apply_modifications("boulevard", 3, random.Random(42))
        assert a == b

    def test_empty_string_handled(self):
        # First edit on "" must be an insertion; the second may delete it
        # again, so only the length envelope is guaranteed.
        rng = random.Random(2)
        out = apply_modifications("", 2, rng)
        assert 0 <= len(out) <= 2

    def test_many_edits_allowed(self):
        rng = random.Random(3)
        out = apply_modifications("ab", 10, rng)
        assert isinstance(out, str)


class TestGradedDatasets:
    def test_levels_monotone_in_error(self):
        mods = [modifications_for_level(lv)[0] for lv in range(1, 9)]
        assert mods == sorted(mods, reverse=True)
        touched = [modifications_for_level(lv)[1] for lv in range(1, 9)]
        assert touched == sorted(touched, reverse=True)

    def test_invalid_level(self):
        with pytest.raises(ConfigurationError):
            modifications_for_level(0)
        with pytest.raises(ConfigurationError):
            modifications_for_level(9)

    def test_dataset_shape(self):
        clean = ["alpha beta", "gamma delta"]
        ds = make_graded_dataset(4, clean, duplicates_per_string=3, seed=1)
        assert len(ds) == 2 * (1 + 3)
        assert ds.strings[0] == "alpha beta"
        assert ds.groups[:4] == [0, 0, 0, 0]

    def test_duplicates_differ_from_source(self):
        clean = ["mainstreet apartment"]
        ds = make_graded_dataset(8, clean, duplicates_per_string=5, seed=2)
        for i in ds.dirty_indexes():
            assert ds.strings[i] != clean[0]

    def test_relevant_for(self):
        ds = make_graded_dataset(5, ["a b", "c d"], 2, seed=3)
        rel = ds.relevant_for(0)
        assert set(rel) == {1, 2}

    def test_group_members(self):
        ds = make_graded_dataset(5, ["a b", "c d"], 2, seed=3)
        assert ds.group_members(1) == [3, 4, 5]

    def test_all_levels(self):
        levels = make_all_levels(["one two"], duplicates_per_string=1)
        assert [d.level for d in levels] == list(range(1, 9))

    def test_deterministic(self):
        a = make_graded_dataset(3, ["word here"], 2, seed=7)
        b = make_graded_dataset(3, ["word here"], 2, seed=7)
        assert a.strings == b.strings


class TestWorkloads:
    def test_bucket_assignment(self, word_database):
        coll, _words = word_database
        buckets = bucket_words(coll)
        for (lo, hi), ids in buckets.items():
            for sid in ids:
                assert lo <= len(coll[sid].tokens) <= hi

    def test_workload_sources_in_bucket(self, word_database):
        coll, _ = word_database
        wl = make_workload(coll, (6, 10), count=10, seed=1)
        for sid in wl.source_ids:
            assert 6 <= len(coll[sid].tokens) <= 10

    def test_zero_mods_exact_match_exists(self, word_database):
        coll, _ = word_database
        wl = make_workload(coll, (6, 10), count=5, modifications=0, seed=2)
        for query, sid in zip(wl.queries, wl.source_ids):
            assert query == coll.payload(sid)

    def test_modifications_applied(self, word_database):
        coll, _ = word_database
        wl = make_workload(coll, (11, 15), count=10, modifications=2, seed=3)
        changed = sum(
            1
            for query, sid in zip(wl.queries, wl.source_ids)
            if query != coll.payload(sid)
        )
        assert changed >= 8  # two random edits almost always change a word

    def test_invalid_bucket(self, word_database):
        coll, _ = word_database
        with pytest.raises(ConfigurationError):
            make_workload(coll, (2, 7))

    def test_invalid_count(self, word_database):
        coll, _ = word_database
        with pytest.raises(ConfigurationError):
            make_workload(coll, (6, 10), count=0)

    def test_deterministic(self, word_database):
        coll, _ = word_database
        a = make_workload(coll, (6, 10), count=10, seed=4)
        b = make_workload(coll, (6, 10), count=10, seed=4)
        assert a.queries == b.queries

    def test_all_bucket_workloads(self, word_database):
        coll, _ = word_database
        wls = all_bucket_workloads(coll, count=5, seed=5)
        assert len(wls) >= 2
        assert all(len(wl) == 5 for wl in wls)
