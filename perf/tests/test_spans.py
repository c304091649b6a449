import json

import pytest

from harness import SpanRecorder


def test_self_time_is_duration_minus_child_cover():
    rec = SpanRecorder()
    op = rec.add("op", 0.0, 10.0, None, 7)
    rec.add("door", 1.0, 4.0, op, 7)
    rec.add("door", 6.0, 9.0, op, 7)
    assert rec.self_times() == [4.0, 3.0, 3.0]


def test_overlapping_and_overhanging_children_are_not_double_counted():
    rec = SpanRecorder()
    op = rec.add("op", 0.0, 10.0, None, 0)
    rec.add("a", 1.0, 6.0, op, 0)
    rec.add("b", 4.0, 8.0, op, 0)      # overlaps a on [4, 6]
    rec.add("c", 9.0, 12.0, op, 0)     # hangs past the parent's end
    # Cover is [1, 8] and [9, 10]: 8 of the parent's 10.
    assert rec.self_times()[op] == pytest.approx(2.0)


def test_begin_end_nest_and_inherit_the_request_id():
    rec = SpanRecorder()
    op = rec.begin("op", 42)
    door = rec.begin("door")
    send = rec.begin("send")
    rec.end(send)
    rec.end(door)
    rec.end(op)
    names = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names == [("op", None, 42), ("door", op, 42), ("send", door, 42)]
    starts = [s[1] for s in rec.spans]
    ends = [s[2] for s in rec.spans]
    assert starts == sorted(starts) and ends == sorted(ends, reverse=True)
    assert all(value >= 0.0 for value in rec.self_times())


def test_median_ms_and_flush_round_trip(tmp_path):
    rec = SpanRecorder()
    for request in range(3):
        op = rec.add("op", 0.0, 0.004, None, request)
        rec.add("door", 0.001, 0.003, op, request)
    assert rec.median_ms("op") == pytest.approx(4.0)
    assert rec.median_ms("door") == pytest.approx(2.0)
    assert rec.median_ms("op", self_time=True) == pytest.approx(2.0)
    assert rec.median_ms("absent") == 0.0
    path = tmp_path / "out" / "spans.jsonl"
    rec.flush(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 6
    assert rows[1] == {
        "id": 1, "name": "door", "start": 0.001, "end": 0.003,
        "parent": 0, "request": 0, "self_ms": pytest.approx(2.0),
    }
