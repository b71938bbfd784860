"""Direct unit tests for the candidate-set data structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.candidates import (
    Candidate,
    HashCandidateSet,
    PartitionedCandidateSet,
)


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

    def test_prune_back_monotone(self):
        cs = self._make()
        removed = cs.prune_back(lambda c: c.length > 1.6)
        assert removed == 2  # ids 2 and 4
        assert 2 not in cs and 4 not in cs
        assert 1 in cs and 3 in cs

    def test_prune_back_stops_at_live(self):
        cs = PartitionedCandidateSet(1)
        cs.add(Candidate(1, 1.0), 0)
        cs.add(Candidate(2, 2.0), 0)
        cs.add(Candidate(3, 3.0), 0)
        # Only the back is dead; the front stays even if it would match.
        cs.prune_back(lambda c: c.length >= 3.0)
        assert 3 not in cs
        assert 1 in cs and 2 in cs

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
                st.sampled_from(["add", "remove", "prune"]),
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
            elif op == "prune":
                cs.prune_back(lambda c, cut=value / 2: c.length > cut)
            live = [c.length for c in cs]
            assert cs.max_length() == (max(live) if live else 0.0)
