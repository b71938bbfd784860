import pytest

from perfbench.spans import LAYERS, SpanRecorder, traced
from repro.core.search import StringMatcher


def _recorder(spans):
    """A recorder holding ``(name, start, end, parent)`` spans."""
    rec = SpanRecorder()
    for name, start, end, parent in spans:
        rec.name.append(rec.name_id(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.request_id.append(0)
    return rec


def test_self_time_subtracts_serial_children():
    rec = _recorder([
        ("client", 0.0, 10.0, -1),
        ("service.search", 1.0, 9.0, 0),
        ("search.dispatch", 2.0, 4.0, 1),
        ("search.dispatch", 5.0, 8.0, 1),
    ])
    assert rec.self_times() == pytest.approx([2.0, 3.0, 2.0, 3.0])


def test_self_time_merges_parallel_children():
    # Two batch workers overlapping in [3, 5]: the batch span is covered
    # from 2 to 7, not for the 2 + 4 seconds the children add up to.
    rec = _recorder([
        ("service.batch", 0.0, 10.0, -1),
        ("search.dispatch", 2.0, 5.0, 0),
        ("search.dispatch", 3.0, 7.0, 0),
    ])
    assert rec.self_times()[0] == pytest.approx(5.0)
    summary = rec.summary()
    assert summary["search.dispatch"] == (2, pytest.approx(7.0))


def test_traced_records_layers_and_restores_methods():
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in LAYERS]
    matcher = StringMatcher(["main street", "maine street", "elm avenue"])
    rec = SpanRecorder()
    with traced(rec):
        matcher.match("elm", threshold=0.5)  # outside a request: unrecorded
        with rec.request():
            matcher.match("main stret", threshold=0.5, algorithm="sf")
    for cls, attr, original in originals:
        assert cls.__dict__[attr] is original
    summary = rec.summary()
    assert summary["client"][0] == 1
    for name in ("search.prepare", "search.dispatch", "algorithms.sf",
                 "storage.cursor"):
        assert summary[name][0] >= 1, name
    assert len(rec.algorithm_results) == 1
    # Every span but the root hangs under another span of the request.
    assert all(rec.parent[i] >= 0 for i in range(1, len(rec.start)))
    total_self = sum(s for _calls, s in summary.values())
    assert total_self == pytest.approx(rec.end[0] - rec.start[0])
