"""Event tracing."""

from repro.sim.trace import Trace


def test_record_and_iterate():
    tr = Trace(rank=1)
    tr.record("compute", "k1", 0.0, 2.0, {"elems": 10})
    tr.record("comm", "send->2", 1.0, 1.5)
    assert len(tr) == 2
    assert tr.events[0].meta["elems"] == 10
    assert (tr.events[1].start, tr.events[1].end) == (1.0, 1.5)


def test_disabled_trace_records_nothing():
    tr = Trace(rank=0, enabled=False)
    tr.record("compute", "x", 0, 1)
    tr.count("n")
    tr.gauge("g", 1.0)
    assert len(tr) == 0
    assert tr.counters == {}
    assert tr.gauges == {}


def test_disabled_record_is_allocation_free():
    # The disabled hot path must not build a kwargs dict per call: record
    # takes meta as a positional-or-keyword dict, never **kwargs.
    import inspect

    spec = inspect.getfullargspec(Trace.record)
    assert spec.varkw is None
    assert "meta" in spec.args
    # meta defaults to None so callers pass nothing on the common path.
    assert spec.defaults == (None,)


def test_default_meta_is_shared_and_empty():
    tr = Trace(0)
    tr.record("compute", "a", 0, 1)
    tr.record("compute", "b", 1, 2)
    assert tr.events[0].meta == {}
    # A single shared sentinel dict, not one allocation per event.
    assert tr.events[0].meta is tr.events[1].meta


def test_counters_and_gauges():
    tr = Trace(0)
    tr.count("msgs")
    tr.count("msgs")
    tr.count("bytes", 128.0)
    tr.gauge("imbalance", 0.5)
    tr.gauge("imbalance", 0.25)  # latest wins
    assert tr.counters == {"msgs": 2.0, "bytes": 128.0}
    assert tr.gauges == {"imbalance": 0.25}
