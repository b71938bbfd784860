"""Unit + property tests for the static skip list."""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.storage.pages import IOStats
from repro.storage.skiplist import KEY_BYTES, POINTER_BYTES, SkipList


def make_keys(n, seed=0):
    rng = random.Random(seed)
    keys = sorted(
        (round(rng.uniform(0, 100), 3), i) for i in range(n)
    )
    return keys


def tower_height(ordinal):
    """The per-ordinal definition: trailing one-bits of ``ordinal`` + 1."""
    height = 1
    while ordinal & 1:
        height += 1
        ordinal >>= 1
    return height


def reference_levels(kept):
    """``levels[h]``: the towers higher than ``h``, one ordinal at a time."""
    if not kept:
        return []
    levels = [[] for _ in range(max(map(tower_height, range(kept))))]
    for i in range(kept):
        for h in range(tower_height(i)):
            levels[h].append(i)
    return levels


def reference_heights(kept):
    """Each kept key's tower height, read off ``reference_levels``."""
    levels = reference_levels(kept)
    return [sum(i in level for level in levels) for i in range(kept)]


def reference_descent(kept_keys, stride, n, probe):
    """``(position, jumps)`` of a descent over the reference towers."""
    idx, visited = -1, 0
    for level in reversed(reference_levels(len(kept_keys))):
        for tower in level:
            if tower <= idx:
                continue
            visited += 1
            if kept_keys[tower] < probe:
                idx = tower
            else:
                break
    return (0 if idx < 0 else min(idx * stride + 1, n)), visited


class TestTowerHeights:
    def test_deterministic(self):
        heights = reference_heights(8)
        assert heights == [1, 2, 1, 3, 1, 2, 1, 4]
        sl = SkipList(make_keys(8))
        assert sl.size_bytes() == 8 * KEY_BYTES + sum(heights) * POINTER_BYTES

    def test_geometric_distribution(self):
        levels = reference_levels(1024)
        assert len(levels[1]) == 512
        assert len(levels[2]) == 256
        towers = sum(len(level) for level in levels)
        assert towers == 2047
        sl = SkipList(make_keys(1024))
        assert sl.size_bytes() == 1024 * KEY_BYTES + towers * POINTER_BYTES

    @staticmethod
    def _check_against_reference(n, max_bytes, probes, strides=(1, 3, 16)):
        keys = make_keys(n, seed=n)
        for stride in strides:
            sl = SkipList(keys, max_bytes=max_bytes, stride=stride)
            assert sl.stride % stride == 0  # thinning only doubles it
            kept_keys = keys[:: sl.stride]
            kept = len(kept_keys)
            assert sl.min_key() == (kept_keys[0] if kept else None)
            towers = sum(len(level) for level in reference_levels(kept))
            assert sl.size_bytes() == (
                kept * KEY_BYTES + towers * POINTER_BYTES
            )
            for probe in probes + kept_keys[:: max(1, kept // 8)]:
                stats = IOStats()
                pos = sl.seek_ge(probe, stats)
                # The descent over the reference towers, jump for jump.
                assert (pos, stats.skip_jumps) == reference_descent(
                    kept_keys, sl.stride, n, probe
                )

    @given(
        st.integers(min_value=0, max_value=300),
        st.sampled_from([None, 64, 512, 4096]),
        st.lists(st.floats(-10, 110), max_size=4),
        st.sampled_from([1, 3, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_levels_match_per_ordinal_towers(
        self, n, max_bytes, lengths, stride
    ):
        self._check_against_reference(
            n, max_bytes, [(length, 500) for length in lengths], (stride,)
        )

    @pytest.mark.parametrize("n", [1000, 1023, 1024, 1025, 4097])
    @pytest.mark.parametrize("max_bytes", [None, 64, 512, 4096])
    def test_levels_match_per_ordinal_towers_at_size(self, n, max_bytes):
        self._check_against_reference(
            n, max_bytes, [(-1.0, 0), (37.5, 0), (99.9, 9999), (200.0, 0)]
        )


class TestSeek:
    def test_seek_matches_bisect(self):
        keys = make_keys(500)
        sl = SkipList(keys)
        for probe in [(-1.0, 0), (50.0, -1), (100.5, 0), keys[42], keys[499]]:
            expected = bisect.bisect_left(keys, probe)
            got = sl.seek_ge(probe)
            # Exact (stride 1) skip lists land exactly.
            assert got == expected

    def test_seek_empty(self):
        sl = SkipList([])
        assert sl.seek_ge((1.0, 0)) == 0

    def test_seek_before_first(self):
        keys = make_keys(10)
        sl = SkipList(keys)
        assert sl.seek_ge((-5.0, 0)) == 0

    def test_seek_past_last(self):
        keys = make_keys(10)
        sl = SkipList(keys)
        pos = sl.seek_ge((1e9, 0))
        assert pos >= len(keys) - 1  # at/after last kept key

    def test_seek_charges_jumps(self):
        keys = make_keys(200)
        sl = SkipList(keys)
        stats = IOStats()
        sl.seek_ge(keys[150], stats)
        assert stats.skip_jumps > 0
        # O(log n): far fewer jumps than a linear scan.
        assert stats.skip_jumps < 100

    @given(st.integers(min_value=0, max_value=300), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_seek_is_lower_bound_property(self, n, seed):
        keys = make_keys(n, seed)
        sl = SkipList(keys)
        rng = random.Random(seed + 999)
        probe = (round(rng.uniform(-10, 110), 3), rng.randrange(1000))
        pos = sl.seek_ge(probe)
        expected = bisect.bisect_left(keys, probe)
        # Never overshoots; with stride 1 it is exact.
        assert pos <= expected
        assert pos == expected


class TestThinning:
    def test_stride_grows_under_budget(self):
        keys = make_keys(10_000)
        full = SkipList(keys)
        capped = SkipList(keys, max_bytes=full.size_bytes() // 8)
        assert capped.stride > 1
        assert capped.size_bytes() < full.size_bytes()

    def test_thinned_seek_is_conservative(self):
        keys = make_keys(5_000)
        capped = SkipList(keys, max_bytes=4096)
        for probe in [keys[17], keys[1234], keys[4999], (200.0, 0)]:
            pos = capped.seek_ge(probe)
            expected = bisect.bisect_left(keys, probe)
            assert pos <= expected  # lands at or before the true boundary
            # And within one stride of it.
            assert expected - pos <= capped.stride

    def test_unsorted_rejected(self):
        with pytest.raises(StorageError):
            SkipList([(2.0, 0), (1.0, 1)])

    def test_invalid_stride(self):
        with pytest.raises(StorageError):
            SkipList([], stride=0)

    def test_min_key(self):
        keys = make_keys(5)
        assert SkipList(keys).min_key() == keys[0]
        assert SkipList([]).min_key() is None

    def test_len_reports_underlying(self):
        keys = make_keys(100)
        sl = SkipList(keys, max_bytes=512)
        assert len(sl) == 100
