"""Direct unit tests for the candidate-set data structures."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SetCollection, SetSimilaritySearcher
from repro.algorithms.candidates import (
    Candidate,
    HashCandidateSet,
    PartitionedCandidateSet,
)
from repro.algorithms.hybrid import Hybrid


class TestCandidate:
    def test_see_accumulates_once(self):
        c = Candidate(7, 2.0)
        c.see(0, 0.4)
        c.see(0, 0.4)  # duplicate encounter is a no-op
        c.see(1, 0.1)
        assert c.lower == pytest.approx(0.5)
        assert c.seen(0) and c.seen(1) and not c.seen(2)

    def test_rule_out_and_resolution(self):
        c = Candidate(1, 1.0)
        all_mask = 0b111
        c.see(0, 0.2)
        assert not c.resolved(all_mask)
        c.rule_out(1)
        c.rule_out(2)
        assert c.resolved(all_mask)

    def test_sort_key(self):
        assert Candidate(3, 1.5).sort_key() == (1.5, 3)

    def test_repr(self):
        assert "id=9" in repr(Candidate(9, 1.0))


class TestHashCandidateSet:
    def test_add_get_remove(self):
        cs = HashCandidateSet()
        c = cs.add(Candidate(5, 1.0))
        assert cs.get(5) is c
        assert 5 in cs
        cs.remove(5)
        assert cs.get(5) is None
        assert 5 not in cs

    def test_remove_missing_is_noop(self):
        cs = HashCandidateSet()
        cs.remove(42)  # must not raise

    def test_peak_tracking(self):
        cs = HashCandidateSet()
        for i in range(5):
            cs.add(Candidate(i, 1.0))
        cs.remove(0)
        cs.remove(1)
        assert cs.peak == 5
        assert len(cs) == 3

    def test_scan_is_snapshot(self):
        cs = HashCandidateSet()
        for i in range(3):
            cs.add(Candidate(i, 1.0))
        for c in cs.scan():
            cs.remove(c.set_id)  # mutation during scan is safe
        assert len(cs) == 0


class TestPartitionedCandidateSet:
    def _make(self):
        cs = PartitionedCandidateSet(num_lists=3)
        # Discovery order within a partition is increasing length.
        cs.add(Candidate(1, 1.0), discovered_in=0)
        cs.add(Candidate(2, 2.0), discovered_in=0)
        cs.add(Candidate(3, 1.5), discovered_in=1)
        cs.add(Candidate(4, 3.0), discovered_in=2)
        return cs

    def test_max_length_from_tails(self):
        cs = self._make()
        assert cs.max_length() == 3.0

    def test_max_length_after_tombstone(self):
        cs = self._make()
        cs.remove(4)
        assert cs.max_length() == 2.0

    def test_max_length_empty(self):
        assert PartitionedCandidateSet(2).max_length() == 0.0

    def test_peak(self):
        cs = self._make()
        cs.remove(1)
        assert cs.peak == 4

    def test_scan_lists_live_only(self):
        cs = self._make()
        cs.remove(3)
        assert {c.set_id for c in cs.scan()} == {1, 2, 4}

    def test_contains_and_len(self):
        cs = self._make()
        assert 3 in cs
        assert len(cs) == 4

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=60,
        )
    )
    def test_running_max_length_matches_live_candidates(self, ops):
        cs = PartitionedCandidateSet(3)
        next_id = 0
        # Each partition receives increasing lengths, as list order gives.
        floor = [0.0, 0.0, 0.0]
        for op, part, value in ops:
            if op == "add":
                floor[part] += value / 4
                cs.add(Candidate(next_id, floor[part]), part)
                next_id += 1
            elif op == "remove":
                cs.remove(value)
            live = [c.length for c in cs]
            assert cs.max_length() == (max(live) if live else 0.0)


class TestHybridAdmission:
    """Hybrid needs no pruning from its partition backs: the cut such a
    pass would apply, ``len(s) > Σ idf² / (tau·len(q))`` over the query's
    lists, is already implied by the admission bound, which sums a subset
    of the same squared idfs."""

    @settings(max_examples=60, deadline=None)
    @given(
        sets=st.lists(
            st.sets(st.sampled_from("abcdefghij"), min_size=1, max_size=6),
            min_size=1,
            max_size=40,
        ),
        query=st.sets(st.sampled_from("abcdefghijk"), min_size=1, max_size=6),
        tau=st.sampled_from([0.3, 0.5, 0.6, 0.7, 0.8, 0.9]),
    )
    def test_every_admitted_candidate_is_within_the_back_cut(
        self, sets, query, tau
    ):
        searcher = SetSimilaritySearcher(
            SetCollection.from_token_sets(sets), page_capacity=2
        )
        runs = []
        admitted = []
        run = Hybrid._run
        add = PartitionedCandidateSet.add

        def recording_run(algorithm, lists, tau):
            runs.append((lists, tau))
            return run(algorithm, lists, tau)

        def recording_add(candidates, candidate, discovered_in):
            admitted.append(candidate)
            return add(candidates, candidate, discovered_in)

        with mock.patch.object(Hybrid, "_run", recording_run), \
                mock.patch.object(PartitionedCandidateSet, "add", recording_add):
            searcher.search(sorted(query), tau, algorithm="hybrid")
        ((lists, effective_tau),) = runs
        scale = effective_tau * lists.query.length
        if scale <= 0.0:
            assert not admitted
            return
        cut = sum(lists.idf_squared) / scale
        assert all(c.length <= cut for c in admitted)
