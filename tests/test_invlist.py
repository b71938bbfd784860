"""Unit tests for the inverted-list index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collection import SetCollection
from repro.core.errors import IndexNotBuiltError, StorageError
from repro.faults import use_fault_plan
from repro.storage.buffer import BufferedIOStats
from repro.storage.invlist import InvertedIndex
from repro.storage.pages import IOStats
from repro.storage.skiplist import SkipList


@pytest.fixture()
def coll():
    return SetCollection.from_token_sets(
        [
            ["a"],               # 0: short set, short length
            ["a", "b"],          # 1
            ["a", "b", "c"],     # 2
            ["b", "c", "d"],     # 3
            ["a", "b", "c", "d"],# 4: longest
        ]
    )


@pytest.fixture()
def index(coll):
    return InvertedIndex(coll)


class TestBuild:
    def test_tokens_present(self, index):
        assert set(index.tokens()) == {"a", "b", "c", "d"}

    def test_list_lengths(self, index):
        assert index.list_length("a") == 4
        assert index.list_length("d") == 2
        assert index.list_length("zzz") == 0

    def test_num_postings(self, index, coll):
        assert index.num_postings() == sum(len(r) for r in coll)

    def test_requires_frozen(self):
        c = SetCollection()
        c.add(["a"])
        with pytest.raises(IndexNotBuiltError):
            InvertedIndex(c)

    def test_contains(self, index):
        assert "a" in index
        assert "nope" not in index


class TestWeightOrderCursor:
    def test_sorted_by_length_then_id(self, index, coll):
        cursor = index.cursor("a")
        entries = []
        while not cursor.exhausted():
            entries.append(cursor.next())
        assert entries == sorted(entries)
        # Increasing length == decreasing contribution.
        lengths = [ln for ln, _ in entries]
        assert lengths == sorted(lengths)

    def test_ids_match_collection(self, index, coll):
        cursor = index.cursor("d")
        ids = set()
        while not cursor.exhausted():
            _, sid = cursor.next()
            ids.add(sid)
        assert ids == {3, 4}

    def test_lengths_match_collection(self, index, coll):
        cursor = index.cursor("b")
        while not cursor.exhausted():
            length, sid = cursor.next()
            assert length == pytest.approx(coll.length(sid))

    def test_missing_token_returns_none(self, index):
        assert index.cursor("zzz") is None

    def test_seek_with_skip_list(self, index, coll):
        stats = IOStats()
        cursor = index.cursor("a", stats, use_skip_list=True)
        target = coll.length(2)  # somewhere in the middle
        cursor.seek_length_ge(target)
        length, _ = cursor.peek()
        assert length >= target

    def test_seek_without_skip_list_charges_elements(self, coll):
        idx = InvertedIndex(coll, with_skip_lists=False)
        stats = IOStats()
        cursor = idx.cursor("a", stats, use_skip_list=False)
        cursor.seek_length_ge(coll.length(4))
        assert stats.elements_read > 0  # scan-and-discard paid per element

    def test_seek_to_zero_is_noop(self, index):
        stats = IOStats()
        cursor = index.cursor("a", stats)
        cursor.seek_length_ge(0.0)
        assert cursor.position == 0

    def test_seek_past_end_exhausts(self, index):
        cursor = index.cursor("a")
        cursor.seek_length_ge(1e9)
        assert cursor.exhausted()


class TestIdOrderCursor:
    def test_sorted_by_id(self, index):
        cursor = index.id_cursor("b")
        ids = []
        while not cursor.exhausted():
            sid, _ = cursor.next()
            ids.append(sid)
        assert ids == sorted(ids) == [1, 2, 3, 4]

    def test_disabled_raises(self, coll):
        idx = InvertedIndex(coll, with_id_lists=False)
        with pytest.raises(IndexNotBuiltError):
            idx.id_cursor("a")

    def test_len(self, index):
        assert len(index.id_cursor("a")) == 4


class TestProbe:
    def test_hit_returns_length(self, index, coll):
        assert index.probe("a", 2) == pytest.approx(coll.length(2))

    def test_miss_returns_none(self, index):
        assert index.probe("d", 0) is None

    def test_unknown_token_none(self, index):
        assert index.probe("zzz", 0) is None

    def test_probe_charges_one_random_io(self, index):
        stats = IOStats()
        index.probe("a", 2, stats)
        assert stats.random_pages == 1
        assert stats.hash_probes == 1

    def test_disabled_raises(self, coll):
        idx = InvertedIndex(coll, with_hash_index=False)
        with pytest.raises(IndexNotBuiltError):
            idx.probe("a", 0)


class TestSizeReport:
    def test_components(self, index):
        report = index.size_report()
        assert report["inverted_lists_by_weight"] > 0
        assert report["inverted_lists_by_id"] > 0
        assert report["skip_lists"] > 0
        assert report["extendible_hashing"] > 0
        assert report["total"] == sum(
            v for k, v in report.items() if k != "total"
        )

    def test_stripped_index_smaller(self, coll):
        full = InvertedIndex(coll).size_report()["total"]
        lean = InvertedIndex(
            coll,
            with_id_lists=False,
            with_hash_index=False,
        ).size_report()["total"]
        assert lean < full

    def test_hashing_dominates(self, coll):
        # The paper's Figure 5 point: extendible hashing is the heavy part.
        report = InvertedIndex(coll).size_report()
        assert report["extendible_hashing"] > report["skip_lists"]


# ---------------------------------------------------------------------------
# Cursor equivalence: index cursors against a reference page model
# ---------------------------------------------------------------------------


class _ModelCursor:
    """Reference model of one list cursor's accounting.

    The first read of a page charges it (sequentially, or randomly when a
    skip-list landing brought the cursor there); further reads of the
    buffered page are free; every consumed posting charges one element.
    Page keys are ``(list name, page)``, so a buffer pool sees the same
    hits as with the index's per-file keys.
    """

    def __init__(self, entries, name, capacity, stats, skip=None):
        self.entries = entries
        self.name = name
        self.capacity = capacity
        self.stats = stats
        self.skip = skip
        self.pos = 0
        self.page = None

    def _touch(self, random):
        page = self.pos // self.capacity
        if page != self.page:
            if random:
                self.stats.charge_random_page(key=(self.name, page))
            else:
                self.stats.charge_sequential_page(key=(self.name, page))
            self.page = page

    def exhausted(self):
        return self.pos >= len(self.entries)

    def peek(self):
        if self.exhausted():
            raise StorageError("model cursor exhausted")
        self._touch(random=False)
        return self.entries[self.pos]

    def next(self):
        record = self.peek()
        self.stats.charge_element()
        self.pos += 1
        return record

    def seek_length_ge(self, lo):
        if self.exhausted() or self.peek()[0] >= lo:
            return
        if self.skip is not None:
            target = self.skip.seek_ge((lo, -1), self.stats)
            if target > self.pos:
                self.pos = target
                if not self.exhausted():
                    self._touch(random=True)
        while not self.exhausted() and self.peek()[0] < lo:
            self.next()


_VOCAB = "abcd"


@st.composite
def _cursor_scenarios(draw):
    sets = draw(
        st.lists(
            st.sets(st.sampled_from(_VOCAB), min_size=1),
            min_size=8,
            max_size=60,
        )
    )
    layout = {
        "page_capacity": draw(st.integers(1, 6)),
        "skiplist_stride": draw(st.integers(1, 5)),
        # A small budget forces thinned skip lists (landings before the
        # boundary, finished by a sequential walk).
        "skiplist_max_bytes": draw(st.sampled_from([96, 10 << 20])),
        # Skip seeks are the only source of random pages: favour them.
        "with_skip_lists": draw(st.sampled_from([True, True, False])),
    }
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["peek", "next", "seek"]),
                st.integers(0, 2 * len(_VOCAB)),  # which cursor
                # Seek target as % of the longest set; the shortest sets
                # are about 40% as long, so lower targets are no-ops.
                st.integers(30, 110),
            ),
            min_size=20,
            max_size=100,
        )
    )
    use_skip = draw(st.sampled_from([True, True, False]))
    checked = draw(st.booleans())
    return sets, layout, ops, use_skip, checked


def _drive(scenario, stats, model_stats):
    """Run ``scenario`` on index cursors and on models; compare each step."""
    sets, layout, ops, use_skip, checked = scenario
    coll = SetCollection.from_token_sets([sorted(s) for s in sets])
    index = InvertedIndex(coll, **layout)
    lengths = coll.lengths()
    longest = max(lengths)
    pairs = []
    # Weight-order cursors first, then id-order ones; the first token gets
    # a second weight cursor so two cursors share one file's pages.
    tokens = sorted(index.tokens())
    for token in tokens + tokens[:1]:
        entries = sorted(
            (lengths[r.set_id], r.set_id) for r in coll if token in r.tokens
        )
        skip = None
        if layout["with_skip_lists"] and use_skip:
            skip = SkipList(
                entries,
                max_bytes=layout["skiplist_max_bytes"],
                stride=layout["skiplist_stride"],
            )
        cursor = index.cursor(
            token, stats, use_skip_list=use_skip, checked=checked
        )
        model = _ModelCursor(
            entries, token, layout["page_capacity"], model_stats, skip
        )
        pairs.append((cursor, model))
    for token in tokens:
        entries = sorted(
            (r.set_id, lengths[r.set_id]) for r in coll if token in r.tokens
        )
        model = _ModelCursor(
            entries, ("id", token), layout["page_capacity"], model_stats
        )
        pairs.append((index.id_cursor(token, stats), model))
    for op, which, pct in ops:
        cursor, model = pairs[which % len(pairs)]
        if op == "seek":
            if not hasattr(cursor, "seek_length_ge"):
                continue
            lo = longest * pct / 100.0
            cursor.seek_length_ge(lo)
            model.seek_length_ge(lo)
        elif model.exhausted():
            with pytest.raises(StorageError):
                getattr(cursor, op)()
        else:
            assert getattr(cursor, op)() == getattr(model, op)()
        assert cursor.position == model.pos
        assert cursor.exhausted() == model.exhausted()
        assert stats.snapshot() == model_stats.snapshot()


class TestCursorEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(_cursor_scenarios())
    def test_plain_ledger(self, scenario):
        _drive(scenario, IOStats(), IOStats())

    @settings(max_examples=150, deadline=None)
    @given(_cursor_scenarios(), st.integers(1, 4))
    def test_buffered_ledger(self, scenario, capacity):
        _drive(
            scenario, BufferedIOStats(capacity), BufferedIOStats(capacity)
        )

    @settings(max_examples=60, deadline=None)
    @given(_cursor_scenarios())
    def test_read_page_fires_once_per_charged_page(self, scenario):
        stats = IOStats()
        with use_fault_plan("seed=1;storage.read_page:latency:ms=0") as plan:
            _drive(scenario, stats, IOStats())
        fires = [e for e in plan.journal if e[0] == "storage.read_page"]
        assert len(fires) == stats.sequential_pages + stats.random_pages
