"""Unit tests for the simulated paged storage and I/O accounting."""

import ast
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
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


class _PageModel:
    """Reference model of a cursor over records ``0..n-1``: the first
    read of a page charges it (sequentially, or randomly when a jump
    lands on it), further reads of the buffered page are free, and every
    consumed record charges one element."""

    def __init__(self, n, capacity, start):
        self.n = n
        self.capacity = capacity
        self.pos = start
        self.page = None
        self.stats = IOStats()

    def _touch(self, random):
        page = self.pos // self.capacity
        if page != self.page:
            if random:
                self.stats.charge_random_page()
            else:
                self.stats.charge_sequential_page()
            self.page = page

    def read(self):
        """The record under the cursor, or None when exhausted."""
        if self.pos >= self.n:
            return None
        self._touch(random=False)
        return self.pos

    def consume(self, count):
        self.stats.charge_element(count)
        self.pos += count

    def jump(self, position):
        self.pos = position
        if position < self.n:
            self._touch(random=True)


@st.composite
def _cursor_runs(draw):
    n = draw(st.integers(0, 40))
    capacity = draw(st.integers(1, 8))
    start = draw(st.integers(0, n + 2))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["peek", "next", "slice", "jump"]),
                # Records a slice consumes (clipped to the page), or how
                # far a jump moves.
                st.integers(0, 10),
            ),
            max_size=60,
        )
    )
    return n, capacity, start, ops


class TestCursorModel:
    """Every way of moving a cursor enters pages and charges postings
    as one reference model does."""

    @settings(max_examples=300, deadline=None)
    @given(_cursor_runs())
    def test_matches_model(self, run):
        n, capacity, start, ops = run
        f = PagedFile(8, capacity)
        f.extend(range(n))
        stats = IOStats()
        cursor = f.cursor(stats, start=start)
        model = _PageModel(n, capacity, start)
        for op, count in ops:
            if op == "jump":
                cursor.jump(cursor.position + count)
                model.jump(model.pos + count)
            elif op == "slice":
                page = cursor.page()
                record = model.read()
                if record is None:
                    assert page is None
                else:
                    records, pos, end = page
                    assert records[pos] == record == pos
                    page_end = (pos // capacity + 1) * capacity
                    assert end == min(page_end, n)
                    k = min(count, end - pos)
                    cursor.advance(k)
                    model.consume(k)
            else:
                record = model.read()
                if record is None:
                    with pytest.raises(StorageError):
                        getattr(cursor, op)()
                else:
                    assert getattr(cursor, op)() == record
                    if op == "next":
                        model.consume(1)
            assert cursor.position == model.pos
            assert cursor.exhausted() == (model.pos >= n)
            assert (
                stats.sequential_pages,
                stats.random_pages,
                stats.elements_read,
            ) == (
                model.stats.sequential_pages,
                model.stats.random_pages,
                model.stats.elements_read,
            )


def _calls_by_function(predicate):
    """``module:Class.function`` of every call under ``src/repro`` that
    satisfies ``predicate(call)``, one entry per call."""
    root = Path(repro.__file__).parent
    found = []

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                visit(child, scope + [child.name], module)
                continue
            if isinstance(child, ast.Call) and predicate(child):
                found.append(f"{module}:{'.'.join(scope)}")
            visit(child, scope, module)

    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        visit(ast.parse(path.read_text()), [], module)
    return found


class TestOneReadPath:
    """Pages are entered in one function and postings charged in one."""

    def test_read_page_fires_in_one_place(self):
        def fires_read_page(call):
            return any(
                isinstance(arg, ast.Constant)
                and arg.value == "storage.read_page"
                for arg in call.args
            )

        assert _calls_by_function(fires_read_page) == [
            "storage/pages.py:SequentialCursor._enter_page"
        ]

    def test_list_postings_are_charged_in_advance(self):
        def charges_element(call):
            func = call.func
            return (
                isinstance(func, ast.Attribute)
                and func.attr == "charge_element"
            )

        in_lists = [
            site
            for site in _calls_by_function(charges_element)
            if site.startswith(("storage/pages.py", "storage/invlist.py"))
        ]
        assert in_lists == ["storage/pages.py:SequentialCursor.advance"]


class TestDeadline:
    """A ledger's deadline stops a query where it touches disk: a page
    entry (sequential or by a jump) or a hash probe; it is not a
    counter."""

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
            f.cursor(stats).jump(5)
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
