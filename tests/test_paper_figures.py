"""The paper's running examples (Figures 3 and 4), reconstructed exactly.

Both figures are numerically self-consistent: Figure 3 sets
``idf(q1)² = 225, idf(q2)² = 180, idf(q3)² = 45`` giving
``len(q) = sqrt(450) = 21.21``, and the listed contributions pin every
set's normalized length.  We rebuild those exact inverted lists through a
manual index (real posting files and cursors, prescribed statistics) and
check the algorithms' answers and the qualitative access-cost claims the
paper derives from each figure:

* Figure 3: set 4 is the only answer at tau = 1 (score .5 + .4 + .1);
  SF reads fewer postings than iNRA on this instance (Section VI's walk).
* Figure 4: no answers at tau = 1; iNRA stops earlier than SF, which must
  descend list q1 deeply (Lemma 3's direction).
"""

import math

import pytest

from repro.algorithms import make_algorithm
from repro.core.query import PreparedQuery
from repro.core.weights import IdfStatistics
from repro.storage.invlist import (
    POSTING_BYTES,
    TokenPostings,
    WeightOrderCursor,
)
from repro.storage.pages import PagedFile
from repro.storage.skiplist import SkipList


class FixedStats(IdfStatistics):
    """Statistics with prescribed idf values (the figures' premises)."""

    def __init__(self, idf_squared: dict) -> None:
        super().__init__(num_sets=10, doc_freq={t: 1 for t in idf_squared})
        self._fixed = dict(idf_squared)

    def idf(self, token: str) -> float:
        return math.sqrt(self._fixed.get(token, 0.0))

    def idf_squared(self, token: str) -> float:
        return self._fixed.get(token, 0.0)


class ManualIndex:
    """An inverted index with hand-written postings (no collection)."""

    with_skip_lists = True

    def __init__(self, lists: dict) -> None:
        self._postings = {}
        for token, entries in lists.items():
            entries = sorted(entries)
            weight_file = PagedFile(POSTING_BYTES)
            weight_file.extend(entries)
            skip = SkipList(entries, stride=1)
            self._postings[token] = TokenPostings(token, weight_file, skip)
        self._membership = {
            token: {sid: ln for ln, sid in entries}
            for token, entries in lists.items()
        }

    def cursor(self, token, stats=None, use_skip_list=True):
        postings = self._postings.get(token)
        if postings is None:
            return None
        return WeightOrderCursor(postings, stats, use_skip_list)

    def id_cursor(self, token, stats=None):  # pragma: no cover - unused
        raise NotImplementedError

    def probe(self, token, set_id, stats=None):
        if stats is not None:
            stats.charge_random_page()
            stats.charge_hash_probe()
        return self._membership.get(token, {}).get(set_id)

    def list_length(self, token):
        postings = self._postings.get(token)
        return len(postings) if postings else 0


def figure3():
    """idf² = (225, 180, 45); lengths derived from the printed w_i.

    Each set's normalized length is computed ONCE and reused in every list
    it appears in — the index invariant Property 1 rests on (in the real
    system, lengths come from the collection, one value per set).  The
    figure is consistent: e.g. set 4's length solves to 450/len(q) from
    all three of its printed contributions.
    """
    stats = FixedStats({"q1": 225.0, "q2": 180.0, "q3": 45.0})
    lq = math.sqrt(450.0)  # 21.2132 — the paper's 21.21
    length = {
        1: 225.0 / (0.7 * lq),   # 15.15
        2: 450.0 / lq,           # 21.21
        3: 450.0 / lq,
        4: 450.0 / lq,
        5: 225.0 / (0.1 * lq),   # deep in list q1
        6: 180.0 / (0.1 * lq),
        7: 450.0 / lq,
        8: 450.0 / lq,
    }
    lists = {
        "q1": [(length[i], i) for i in (1, 2, 4, 5)],
        "q2": [(length[i], i) for i in (2, 3, 4, 6)],
        "q3": [(length[i], i) for i in (3, 4, 7, 8)],
    }
    index = ManualIndex(lists)
    query = PreparedQuery(["q1", "q2", "q3"], stats)
    return index, query


def figure4():
    """idf² = (225, 135, 45); the variant where iNRA beats SF."""
    stats = FixedStats({"q1": 225.0, "q2": 135.0, "q3": 45.0})
    lq = math.sqrt(405.0)  # 20.1246 — the paper's 20.12
    length = {
        1: 225.0 / (0.7 * lq),   # 15.97
        2: 450.0 / lq,           # 22.36 (= 225/.5 = 135/.3 = 45/.1, x 1/lq)
        3: 450.0 / lq,
        4: 450.0 / lq,
        5: 450.0 / lq,
        6: 135.0 / (0.1 * lq),
        7: 450.0 / lq,
        8: 450.0 / lq,
    }
    lists = {
        "q1": [(length[i], i) for i in (1, 2, 4, 5)],
        "q2": [(length[i], i) for i in (2, 3, 4, 6)],
        "q3": [(length[i], i) for i in (3, 4, 7, 8)],
    }
    index = ManualIndex(lists)
    query = PreparedQuery(["q1", "q2", "q3"], stats)
    return index, query


class TestFigure3:
    def test_paper_numbers_reproduced(self):
        index, query = figure3()
        assert query.length == pytest.approx(21.2132, abs=1e-3)
        # len(1) = 15.15, len(2) = len(3) = len(4) = 21.21 (the paper).
        cursor = index.cursor("q1")
        first_len, first_id = cursor.peek()
        assert first_id == 1
        assert first_len == pytest.approx(15.1523, abs=1e-3)
        # λ cutoffs: λ1 = 21.21, λ2 = 10.6, λ3 = 2.12.
        lam = query.cutoffs(1.0)
        assert lam[0] == pytest.approx(21.2132, abs=1e-3)
        assert lam[1] == pytest.approx(10.6066, abs=1e-3)
        assert lam[2] == pytest.approx(2.1213, abs=1e-3)

    @pytest.mark.parametrize("algo", ["nra", "inra", "sf", "hybrid", "ta", "ita"])
    def test_set4_is_the_answer_at_tau_one(self, algo):
        index, query = figure3()
        result = make_algorithm(algo, index).search(query, 1.0)
        assert result.ids() == [4], algo
        assert result.results[0].score == pytest.approx(1.0)

    def test_sf_reads_fewer_than_nra(self):
        index, query = figure3()
        sf = make_algorithm("sf", index).search(query, 1.0)
        nra = make_algorithm("nra", index).search(query, 1.0)
        assert sf.stats.elements_read < nra.stats.elements_read

    def test_scores_at_lower_threshold(self):
        # Full score table of the figure: 1->0.7, 2->0.9, 3->0.5, 4->1.0.
        index, query = figure3()
        res = make_algorithm("inra", index).search(query, 0.5)
        scores = {r.set_id: round(r.score, 3) for r in res.results}
        assert scores == {1: 0.7, 2: 0.9, 3: 0.5, 4: 1.0}


class TestFigure4:
    def test_paper_numbers_reproduced(self):
        index, query = figure4()
        assert query.length == pytest.approx(20.1246, abs=1e-3)
        lam = query.cutoffs(1.0)
        assert lam[0] == pytest.approx(20.1246, abs=1e-3)
        assert lam[1] == pytest.approx(8.9443, abs=1e-3)
        assert lam[2] == pytest.approx(2.2361, abs=1e-3)
        cursor = index.cursor("q1")
        first_len, _ = cursor.peek()
        # The paper prints 15.97 (225/(0.7·20.1246) = 15.9719).
        assert first_len == pytest.approx(15.9719, abs=1e-3)

    @pytest.mark.parametrize("algo", ["nra", "inra", "sf", "hybrid", "ta", "ita"])
    def test_no_exact_matches(self, algo):
        index, query = figure4()
        result = make_algorithm(algo, index).search(query, 1.0)
        assert result.ids() == [], algo

    def test_inra_stops_earlier_than_sf(self):
        # Lemma 3's direction: breadth-first discovers non-viability fast;
        # SF must descend q1 to λ1 before learning anything.
        index, query = figure4()
        inra = make_algorithm("inra", index).search(query, 1.0)
        sf = make_algorithm("sf", index).search(query, 1.0)
        assert inra.stats.elements_read <= sf.stats.elements_read

    def test_best_set_scores_point_nine(self):
        index, query = figure4()
        res = make_algorithm("sf", index).search(query, 0.85)
        scores = {r.set_id: round(r.score, 3) for r in res.results}
        assert scores == {4: 0.9}
