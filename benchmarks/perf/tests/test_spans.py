"""The span recorder: export, nesting, self times, switch."""

import pytest

from spans import NullRecorder, Recorder, chrome_trace, self_times

pytest.importorskip("repro")


def _record():
    rec = Recorder("t-1")
    with rec.span("setup"):
        with rec.span("import"):
            pass
        with rec.span("first_op"):
            pass
    for i in range(3):
        rec.enabled = i != 1
        with rec.span(f"block[{i}]"):
            with rec.span("op"):
                pass
    rec.enabled = True
    return rec


def test_chrome_trace_passes_the_repo_validator():
    from repro.obs import validate_chrome_trace
    rec = _record()
    doc = chrome_trace(rec.spans, rec.trace_id, "test")
    assert validate_chrome_trace(doc) == []
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in slices] == [
        "setup", "import", "first_op", "block[0]", "op", "block[2]", "op"]
    assert all(e["args"]["trace_id"] == "t-1" for e in slices)
    by_id = {e["args"]["span_id"]: e for e in slices}
    assert by_id[2]["args"]["parent_id"] == 1
    assert "parent_id" not in by_id[1]["args"]


def test_self_time_is_duration_minus_children():
    spans = [
        {"id": 1, "name": "setup", "parent": None, "start_ns": 0,
         "end_ns": 10_000_000},
        {"id": 2, "name": "import", "parent": 1, "start_ns": 1_000_000,
         "end_ns": 4_000_000},
        {"id": 3, "name": "block[0]", "parent": None, "start_ns": 10_000_000,
         "end_ns": 12_000_000},
        {"id": 4, "name": "block[1]", "parent": None, "start_ns": 12_000_000,
         "end_ns": 15_000_000},
    ]
    table = self_times(spans)
    assert table["setup"] == {"count": 1, "total_ms": 10.0, "self_ms": 7.0}
    assert table["import"]["self_ms"] == 3.0
    assert table["block"] == {"count": 2, "total_ms": 5.0, "self_ms": 5.0}


def test_null_recorder_records_nothing():
    rec = NullRecorder()
    rec.enabled = True
    with rec.span("anything"):
        pass
    assert rec.spans == []
