"""Unit tests for the four similarity measures (Section II)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.errors import ConfigurationError
from repro.core.similarity import (
    Bm25Measure,
    Bm25PrimeMeasure,
    IdfMeasure,
    TfIdfMeasure,
    bm25_score,
    idf_similarity,
    measure_from_name,
    tfidf_cosine,
)
from repro.core.weights import IdfStatistics


@pytest.fixture()
def stats():
    sets = [
        {"main", "st", "maine"},
        {"main", "st"},
        {"elm", "ave"},
        {"main", "elm"},
    ]
    return IdfStatistics.from_sets(sets)


class TestIdfSimilarity:
    def test_exact_match_scores_one(self, stats):
        s = {"main", "st"}
        assert idf_similarity(s, s, stats) == pytest.approx(1.0)

    def test_disjoint_scores_zero(self, stats):
        assert idf_similarity({"main"}, {"elm"}, stats) == 0.0

    def test_symmetry(self, stats):
        a, b = {"main", "st"}, {"main", "elm"}
        assert idf_similarity(a, b, stats) == pytest.approx(
            idf_similarity(b, a, stats)
        )

    def test_bounded_by_one(self, stats):
        for a in [{"main"}, {"main", "st"}, {"main", "st", "maine"}]:
            for b in [{"main"}, {"st", "maine"}, {"elm"}]:
                assert 0.0 <= idf_similarity(a, b, stats) <= 1.0 + 1e-12

    def test_subset_formula_case1(self, stats):
        # q ⊂ s: score == len(q)/len(s) (Theorem 1, case 1).
        q = {"main"}
        s = {"main", "st", "maine"}
        expected = stats.length(q) / stats.length(s)
        assert idf_similarity(q, s, stats) == pytest.approx(expected)

    def test_subset_formula_case2(self, stats):
        # s ⊂ q: score == len(s)/len(q) (Theorem 1, case 2).
        q = {"main", "st", "maine"}
        s = {"st"}
        expected = stats.length(s) / stats.length(q)
        assert idf_similarity(q, s, stats) == pytest.approx(expected)

    def test_rare_shared_token_beats_common(self, stats):
        # Sharing the rare 'maine' outweighs sharing the common 'main'
        # between same-size sets.
        base = {"main", "maine"}
        rare = idf_similarity(base, {"maine", "elm"}, stats)
        common = idf_similarity(base, {"main", "elm"}, stats)
        assert rare > common

    def test_empty_operand_zero(self, stats):
        assert idf_similarity(set(), {"main"}, stats) == 0.0
        assert idf_similarity({"main"}, set(), stats) == 0.0

    def test_precomputed_lengths_respected(self, stats):
        q, s = {"main"}, {"main", "st"}
        direct = idf_similarity(q, s, stats)
        cached = idf_similarity(
            q, s, stats,
            q_length=stats.length(q), s_length=stats.length(s),
        )
        assert direct == pytest.approx(cached)

    def test_tf_ignored(self, stats):
        # Multiset inputs behave as sets.
        assert idf_similarity(
            ["main", "main", "st"], ["main", "st"], stats
        ) == pytest.approx(1.0)

    def test_scores_independent_of_hash_seed(self):
        # The brute-force oracle's scores, bit for bit, must not depend on
        # set iteration order, which PYTHONHASHSEED changes.
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).parent.parent),
        )
        digests = set()
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            result = subprocess.run(
                [sys.executable, "-c", _ORACLE_SCORES],
                capture_output=True, text=True, env=env, check=True,
            )
            assert result.stdout.count(":") > 100
            digests.add(result.stdout)
        assert len(digests) == 1


_ORACLE_SCORES = """
import random
from repro import SetCollection, SetSimilaritySearcher
rng = random.Random(5)
vocab = [f"t{i}" for i in range(40)]
searcher = SetSimilaritySearcher(SetCollection.from_token_sets(
    rng.sample(vocab, rng.randint(5, 20)) for _ in range(300)
))
for _ in range(50):
    query = rng.sample(vocab, rng.randint(5, 20))
    print(*(f"{r.set_id}:{r.score.hex()}"
            for r in searcher.brute_force(query, 0.3)))
"""


class TestTfIdfCosine:
    def test_exact_match_one(self, stats):
        counts = {"main": 1, "st": 2}
        assert tfidf_cosine(counts, counts, stats) == pytest.approx(1.0)

    def test_proportional_vectors_one(self, stats):
        a = {"main": 1, "st": 1}
        b = {"main": 2, "st": 2}
        assert tfidf_cosine(a, b, stats) == pytest.approx(1.0)

    def test_tf_divergence_lowers_score(self, stats):
        q = {"main": 1, "st": 1}
        same = tfidf_cosine(q, {"main": 1, "st": 1}, stats)
        skewed = tfidf_cosine(q, {"main": 5, "st": 1}, stats)
        assert skewed < same

    def test_disjoint_zero(self, stats):
        assert tfidf_cosine({"main": 1}, {"elm": 1}, stats) == 0.0

    def test_empty_zero(self, stats):
        assert tfidf_cosine({}, {"main": 1}, stats) == 0.0

    def test_idf_equals_tfidf_when_all_tf_one(self, stats):
        # With every tf == 1 the two measures coincide by construction.
        a = {"main": 1, "st": 1}
        b = {"st": 1, "maine": 1}
        assert tfidf_cosine(a, b, stats) == pytest.approx(
            idf_similarity(a.keys(), b.keys(), stats)
        )


class TestBm25:
    def test_normalized_self_score_one(self, stats):
        counts = {"main": 1, "st": 1}
        assert bm25_score(counts, counts, stats) == pytest.approx(1.0)

    def test_normalized_in_unit_interval(self, stats):
        pairs = [
            ({"main": 1}, {"main": 1, "st": 1}),
            ({"main": 2, "st": 1}, {"st": 1}),
            ({"elm": 1}, {"main": 1}),
        ]
        for q, s in pairs:
            assert 0.0 <= bm25_score(q, s, stats) <= 1.0 + 1e-9

    def test_raw_unbounded_mode(self, stats):
        q = {"maine": 1, "main": 1}
        raw = bm25_score(q, q, stats, normalize=False)
        assert raw > 1.0  # raw BM25 of a rare-token self match

    def test_drop_tf_clamps(self, stats):
        q = {"main": 1}
        s_multi = {"main": 7}
        s_single = {"main": 1}
        assert bm25_score(
            q, s_multi, stats, drop_tf=True
        ) == pytest.approx(bm25_score(q, s_single, stats, drop_tf=True))

    def test_invalid_params(self, stats):
        with pytest.raises(ConfigurationError):
            bm25_score({}, {}, stats, k1=-1)
        with pytest.raises(ConfigurationError):
            bm25_score({}, {}, stats, b=1.5)

    def test_disjoint_zero(self, stats):
        assert bm25_score({"main": 1}, {"elm": 1}, stats) == 0.0


class TestMeasureClasses:
    def test_registry(self, stats):
        for name, cls in [
            ("idf", IdfMeasure),
            ("tfidf", TfIdfMeasure),
            ("bm25", Bm25Measure),
            ("bm25p", Bm25PrimeMeasure),
        ]:
            m = measure_from_name(name, stats)
            assert isinstance(m, cls)
            assert m.name == name

    def test_unknown_measure(self, stats):
        with pytest.raises(ConfigurationError):
            measure_from_name("nope", stats)

    def test_score_strings_convenience(self, stats):
        m = IdfMeasure(stats)
        assert m.score_strings(["main"], ["main"]) == pytest.approx(1.0)

    def test_all_measures_agree_on_exact_match(self, stats):
        q = {"main": 1, "st": 1}
        for name in ["idf", "tfidf", "bm25", "bm25p"]:
            m = measure_from_name(name, stats)
            assert m.score(q, dict(q)) == pytest.approx(1.0), name

    def test_all_measures_zero_on_disjoint(self, stats):
        q, s = {"main": 1}, {"ave": 1}
        for name in ["idf", "tfidf", "bm25", "bm25p"]:
            assert measure_from_name(name, stats).score(q, s) == 0.0

    def test_bm25_prime_ignores_tf_but_bm25_does_not(self, stats):
        q = {"main": 1, "st": 1}
        s1 = {"main": 1, "st": 1}
        s5 = {"main": 5, "st": 1}
        bm25 = Bm25Measure(stats)
        bm25p = Bm25PrimeMeasure(stats)
        assert bm25.score(q, s1) != pytest.approx(bm25.score(q, s5))
        # BM25' reduces multisets to sets: tf is invisible, but document
        # length (sum of tf) still differs -> compare via drop_tf doc_len.
        assert bm25p.score(q, s1) == pytest.approx(bm25p.score(q, s5))
