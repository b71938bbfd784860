"""Unit tests for the inverted-list index."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collection import SetCollection
from repro.core.errors import IndexNotBuiltError, StorageError
from repro.faults import use_fault_plan
from repro.storage.buffer import BufferedIOStats
from repro.storage.exthash import ExtendibleHash
from repro.storage.invlist import POSTING_BYTES, InvertedIndex
from repro.storage.pages import IOStats, PagedFile, SequentialCursor
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

    def test_reports_unbuilt_structures_without_building_them(self, index):
        before = index.size_report()
        assert all(p.hash is None for p in index._postings.values())
        for token in index.tokens():
            index.probe(token, 0)
            index.id_cursor(token)
        assert index.size_report() == before

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


# ---------------------------------------------------------------------------
# Hash indexes and id-ordered lists are built on first use
# ---------------------------------------------------------------------------


class TestBuiltOnFirstUse:
    def test_fresh_index_has_neither(self, index):
        cursor = index.cursor("a")
        while not cursor.exhausted():
            cursor.next()
        assert all(
            p.hash is None and p.id_file is None
            for p in index._postings.values()
        )

    def test_each_access_path_builds_only_its_own_list(self, index):
        index.probe("a", 0)
        index.id_cursor("b")
        built = {
            token: (p.hash is not None, p.id_file is not None)
            for token, p in index._postings.items()
        }
        assert built == {
            "a": (True, False),
            "b": (False, True),
            "c": (False, False),
            "d": (False, False),
        }

    def test_published_once(self, index):
        index.probe("a", 0)
        first_hash = index._postings["a"].hash
        first_file = index.id_cursor("a")._file
        index.probe("a", 1)
        assert index._postings["a"].hash is first_hash
        assert index.id_cursor("a")._file is first_file
        assert index._postings["a"].id_file is first_file

    def test_with_set_shares_built_structures(self, coll):
        index = InvertedIndex(coll)
        index.probe("a", 0)
        grown = index.with_set(5, ["b"], coll.length(3))
        assert grown._postings["a"].hash is index._postings["a"].hash
        assert grown._postings["b"].hash is None


def _eager(entries, page_capacity, bucket_capacity):
    """The hash index and id-ordered file as an eager build lays them out."""
    hash_index = ExtendibleHash(bucket_capacity)
    for length, set_id in entries:
        hash_index.insert(set_id, length)
    id_file = PagedFile(POSTING_BYTES, page_capacity)
    id_file.extend(sorted((sid, ln) for ln, sid in entries))
    return hash_index, id_file


@st.composite
def _lazy_scenarios(draw):
    sets = draw(
        st.lists(
            st.sets(st.sampled_from(_VOCAB), min_size=1),
            min_size=1,
            max_size=40,
        )
    )
    options = {
        "page_capacity": draw(st.integers(1, 6)),
        "hash_bucket_capacity": draw(st.integers(1, 6)),
    }
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["probe", "read"]),
                st.sampled_from(_VOCAB),
                st.integers(0, len(sets)),  # probed id; len(sets) misses
            ),
            min_size=1,
            max_size=60,
        )
    )
    return sets, options, ops


def _compare_with_eager(scenario, stats, eager_stats):
    """Drive probes and id-cursor reads on a fresh index and on eagerly
    built structures; answers, records and ledgers agree at every step."""
    sets, options, ops = scenario
    coll = SetCollection.from_token_sets([sorted(s) for s in sets])
    index = InvertedIndex(coll, **options)
    eager = {
        token: _eager(
            index.postings(token),
            options["page_capacity"],
            options["hash_bucket_capacity"],
        )
        for token in index.tokens()
    }
    cursors = {}
    for op, token, set_id in ops:
        if token not in index:
            assert index.probe(token, set_id, stats) is None
            assert index.id_cursor(token, stats) is None
            continue
        hash_index, id_file = eager[token]
        if op == "probe":
            found, length = hash_index.probe(set_id, eager_stats)
            assert index.probe(token, set_id, stats) == (
                length if found else None
            )
        else:
            if token not in cursors or cursors[token][0].exhausted():
                cursors[token] = (
                    index.id_cursor(token, stats),
                    SequentialCursor(id_file, eager_stats),
                )
            lazy, reference = cursors[token]
            assert lazy.next() == reference.next()
        assert stats.snapshot() == eager_stats.snapshot()


class TestLazyEqualsEager:
    @settings(max_examples=100, deadline=None)
    @given(_lazy_scenarios())
    def test_plain_ledger(self, scenario):
        _compare_with_eager(scenario, IOStats(), IOStats())

    @settings(max_examples=100, deadline=None)
    @given(_lazy_scenarios(), st.integers(1, 4))
    def test_buffered_ledger(self, scenario, capacity):
        _compare_with_eager(
            scenario, BufferedIOStats(capacity), BufferedIOStats(capacity)
        )


class _KeyLedger(IOStats):
    """A ledger that also records the key of every page charge."""

    __slots__ = ("keys",)

    def __init__(self) -> None:
        super().__init__()
        self.keys = []

    def charge_sequential_page(self, pages=1, key=None):
        super().charge_sequential_page(pages, key)
        self.keys.append(key)

    def charge_random_page(self, pages=1, key=None):
        super().charge_random_page(pages, key)
        self.keys.append(key)


def _race(access):
    """Run ``access(ledger)`` on two threads released together."""
    barrier = threading.Barrier(2)
    results = [None, None]
    ledgers = [_KeyLedger(), _KeyLedger()]

    def run(i):
        barrier.wait()
        results[i] = access(ledgers[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, ledgers


class TestFirstUseRace:
    """Two readers hit a list's unbuilt structure at once; the build is
    slowed so both are inside it together."""

    @staticmethod
    def _slow(monkeypatch, name):
        build = getattr(InvertedIndex, name)

        def slow_build(self, postings):
            time.sleep(0.05)
            return build(self, postings)

        monkeypatch.setattr(InvertedIndex, name, slow_build)

    def test_hash_index(self, coll, monkeypatch):
        index = InvertedIndex(coll, hash_bucket_capacity=1)
        self._slow(monkeypatch, "_build_hash")
        answers, ledgers = _race(lambda stats: index.probe("a", 2, stats))
        published = index._postings["a"].hash
        assert answers[0] == answers[1] == pytest.approx(coll.length(2))
        assert ledgers[0].snapshot() == ledgers[1].snapshot()
        assert ledgers[0].keys == ledgers[1].keys
        assert ledgers[0].keys[0][0] == id(published)

    def test_id_list(self, coll, monkeypatch):
        index = InvertedIndex(coll, page_capacity=1)
        self._slow(monkeypatch, "_build_id_file")

        def read_all(stats):
            cursor = index.id_cursor("a", stats)
            return cursor, [cursor.next() for _ in range(len(cursor))]

        results, ledgers = _race(read_all)
        (first, records), (second, again) = results
        assert first._file is second._file is index._postings["a"].id_file
        assert records == again
        assert ledgers[0].snapshot() == ledgers[1].snapshot()
        assert ledgers[0].keys == ledgers[1].keys
