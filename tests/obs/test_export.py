"""Chrome-trace export and schema validation."""

import json

import pytest

from repro.obs.export import _assign_lanes, export_chrome_trace, validate_chrome_trace
from repro.sim.trace import Trace


def _sample_traces():
    tr = Trace(0)
    tr.record("compute", "k", 0.0, 2.0, {"elems": 10})
    tr.record("comm", "send->1", 0.5, 1.0, {"tag": 3, "nbytes": 64})
    tr.record("comm", "send->1", 0.6, 1.2)  # overlaps -> overflow lane
    tr.record("fault", "dup-discard<-1", 1.5, 1.5)  # instant
    return [tr]


def test_export_is_schema_valid_and_json_round_trips():
    obj = export_chrome_trace(_sample_traces(), makespan=2.0)
    validate_chrome_trace(obj)  # raises on any violation
    blob = json.dumps(obj)
    assert json.loads(blob)["otherData"]["makespan_s"] == 2.0


def test_overlapping_spans_get_overflow_lanes():
    obj = export_chrome_trace(_sample_traces())
    names = {
        ev["args"]["name"]
        for ev in obj["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    assert "comm" in names and "comm+1" in names


def test_zero_duration_events_become_instants():
    obj = export_chrome_trace(_sample_traces())
    instants = [ev for ev in obj["traceEvents"] if ev["ph"] == "i"]
    assert len(instants) == 1
    assert instants[0]["name"] == "dup-discard<-1"


def test_trace_timelines_become_tracks():
    from repro.sim.timeline import Timeline

    tr = Trace(0)
    tl = Timeline("gpu0.compute")
    tr._attach(tl)
    tl.schedule(0.0, 1.0, "k[0]")
    obj = export_chrome_trace([tr])
    validate_chrome_trace(obj)
    tracks = {
        ev["args"]["name"]
        for ev in obj["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    assert "gpu0.compute" in tracks
    resource = [ev for ev in obj["traceEvents"] if ev.get("cat") == "resource"]
    assert len(resource) == 1
    assert resource[0]["dur"] == pytest.approx(1e6)  # 1 virtual s -> us


def test_numpy_meta_values_are_coerced():
    import numpy as np

    tr = Trace(0)
    tr.record("compute", "k", 0.0, 1.0, {"n": np.int64(5), "f": np.float64(0.5)})
    obj = export_chrome_trace([tr])
    validate_chrome_trace(obj)
    (span,) = [ev for ev in obj["traceEvents"] if ev["ph"] == "X"]
    assert span["args"] == {"n": 5, "f": 0.5}


def test_validate_rejects_malformed_traces():
    with pytest.raises(ValueError):
        validate_chrome_trace([])  # not an object
    with pytest.raises(ValueError):
        validate_chrome_trace({})  # no traceEvents
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "Q", "name": "x"}]})
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": -1.0}]}
        )
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 0.0}
                ]  # missing dur
            }
        )


def test_assign_lanes_greedy_colouring():
    events = [(0.0, 2.0, "a"), (1.0, 3.0, "b"), (2.5, 4.0, "c"), (0.5, 0.9, "d")]
    lanes = _assign_lanes(events)
    # No two overlapping events may share a lane.
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            overlap = min(events[i][1], events[j][1]) - max(events[i][0], events[j][0])
            if overlap > 0:
                assert lanes[i] != lanes[j], (i, j)
    # Greedy reuse: c fits back into a's lane; d slots after nothing -> lane 1.
    assert lanes == [0, 1, 0, 1]
