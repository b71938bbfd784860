"""Unit tests for the simulated paged storage and I/O accounting."""

import time

import pytest

from repro.core.collection import SetCollection
from repro.core.errors import DeadlineExceeded, StorageError
from repro.storage.invlist import InvertedIndex
from repro.storage.pages import (
    IOStats,
    PagedFile,
    SequentialCursor,
    bytes_human,
)


class TestIOStats:
    def test_initial_zero(self):
        s = IOStats()
        assert s.total_pages == 0
        assert s.elements_read == 0

    def test_charges(self):
        s = IOStats()
        s.charge_sequential_page(2)
        s.charge_random_page()
        s.charge_element(5)
        s.charge_hash_probe()
        s.charge_skip_jump(3)
        s.charge_candidate_scan(4)
        assert s.sequential_pages == 2
        assert s.random_pages == 1
        assert s.elements_read == 5
        assert s.hash_probes == 1
        assert s.skip_jumps == 3
        assert s.candidate_scans == 4

    def test_cost_weights_random_higher(self):
        s = IOStats()
        s.charge_sequential_page(10)
        seq_cost = s.cost()
        s.reset()
        s.charge_random_page(10)
        rand_cost = s.cost()
        assert rand_cost == 10 * seq_cost

    def test_snapshot_and_add(self):
        a, b = IOStats(), IOStats()
        a.charge_element(3)
        b.charge_element(4)
        b.charge_random_page(2)
        a.add(b)
        snap = a.snapshot()
        assert snap["elements_read"] == 7
        assert snap["random_pages"] == 2

    def test_reset(self):
        s = IOStats()
        s.charge_element()
        s.reset()
        assert s.elements_read == 0


class TestPagedFile:
    def test_append_and_len(self):
        f = PagedFile(record_bytes=8, page_capacity=4)
        for i in range(10):
            f.append(i)
        assert len(f) == 10
        assert f.num_pages == 3  # ceil(10/4)

    def test_size_accounting(self):
        f = PagedFile(record_bytes=8, page_capacity=4)
        f.append(0)
        assert f.size_bytes() == 8  # byte-accurate
        assert f.allocated_bytes() == 4 * 8  # page-rounded

    def test_invalid_params(self):
        with pytest.raises(StorageError):
            PagedFile(record_bytes=0)
        with pytest.raises(StorageError):
            PagedFile(record_bytes=8, page_capacity=0)

    def test_fetch_charges_random(self):
        f = PagedFile(8, 4)
        f.extend(range(10))
        stats = IOStats()
        assert f.fetch(7, stats) == 7
        assert stats.random_pages == 1

    def test_fetch_out_of_range(self):
        f = PagedFile(8, 4)
        with pytest.raises(StorageError):
            f.fetch(0)

    def test_page_of(self):
        f = PagedFile(8, 4)
        assert f.page_of(0) == 0
        assert f.page_of(3) == 0
        assert f.page_of(4) == 1


class TestSequentialCursor:
    def _file(self, n=10, cap=4):
        f = PagedFile(8, cap)
        f.extend(range(n))
        return f

    def test_sequential_page_charging(self):
        f = self._file(10, 4)
        stats = IOStats()
        c = f.cursor(stats)
        out = []
        while not c.exhausted():
            out.append(c.next())
        assert out == list(range(10))
        assert stats.sequential_pages == 3  # one per page crossed
        assert stats.elements_read == 10

    def test_peek_does_not_advance_or_charge_element(self):
        f = self._file()
        stats = IOStats()
        c = f.cursor(stats)
        assert c.peek() == 0
        assert c.peek() == 0
        assert stats.elements_read == 0
        assert c.next() == 0
        assert stats.elements_read == 1

    def test_peek_exhausted_raises(self):
        f = PagedFile(8, 4)
        c = f.cursor()
        with pytest.raises(StorageError):
            c.peek()

    def test_jump_charges_random_on_new_page(self):
        f = self._file(20, 4)
        stats = IOStats()
        c = f.cursor(stats)
        c.peek()  # buffer page 0 (1 sequential)
        c.jump(17)  # page 4
        c.peek()
        assert stats.random_pages == 1
        assert stats.sequential_pages == 1

    def test_jump_same_page_free(self):
        f = self._file(20, 4)
        stats = IOStats()
        c = f.cursor(stats)
        c.peek()  # page 0 buffered
        c.jump(2)  # still page 0
        c.peek()
        assert stats.random_pages == 0

    def test_jump_backwards_rejected(self):
        f = self._file()
        c = f.cursor()
        c.jump(5)
        with pytest.raises(StorageError):
            c.jump(2)

    def test_jump_past_end_allowed(self):
        f = self._file(5)
        c = f.cursor()
        c.jump(100)
        assert c.exhausted()

    def test_start_offset(self):
        f = self._file(10)
        c = f.cursor(start=8)
        assert c.next() == 8

    def test_negative_start_rejected(self):
        f = self._file()
        with pytest.raises(StorageError):
            SequentialCursor(f, None, start=-1)

    def test_skip_without_reading(self):
        f = self._file(10, 4)
        stats = IOStats()
        c = f.cursor(stats)
        c.skip(9)
        assert c.next() == 9
        assert stats.elements_read == 1


class TestDeadline:
    """A ledger's deadline stops a query where it touches disk: a page
    entry, a random fetch or a hash probe; it is not a counter."""

    @staticmethod
    def _expired():
        stats = IOStats()
        stats.deadline = time.perf_counter() - 1.0
        return stats

    def test_not_a_counter(self):
        stats = self._expired()
        assert "deadline" not in stats.snapshot()
        assert "deadline" not in IOStats.COUNTER_FIELDS
        stats.reset()
        total = IOStats()
        total.add(stats)
        assert stats.deadline is not None and total.deadline is None

    def test_page_entry_raises_and_charges_nothing(self):
        f = PagedFile(16, page_capacity=4)
        f.extend(range(10))
        stats = self._expired()
        with pytest.raises(DeadlineExceeded):
            f.cursor(stats).next()
        with pytest.raises(DeadlineExceeded):
            f.fetch(5, stats)
        assert stats.snapshot() == IOStats().snapshot()

    def test_reads_inside_a_buffered_page_finish(self):
        f = PagedFile(16, page_capacity=4)
        f.extend(range(10))
        stats = IOStats()
        cursor = f.cursor(stats)
        assert cursor.next() == 0
        stats.deadline = time.perf_counter() - 1.0
        assert [cursor.next() for _ in range(3)] == [1, 2, 3]
        with pytest.raises(DeadlineExceeded):
            cursor.next()  # the next page entry

    def test_hash_probe_raises(self):
        index = InvertedIndex(
            SetCollection.from_token_sets([["a", "b"], ["a"]])
        )
        assert index.probe("a", 0, IOStats()) is not None
        stats = self._expired()
        with pytest.raises(DeadlineExceeded):
            index.probe("a", 0, stats)
        assert stats.hash_probes == 0


class TestBytesHuman:
    def test_units(self):
        assert bytes_human(512) == "512 B"
        assert bytes_human(2048) == "2.0 KB"
        assert bytes_human(5 * 1024 * 1024) == "5.0 MB"
        assert bytes_human(3 * 1024 ** 3) == "3.0 GB"
