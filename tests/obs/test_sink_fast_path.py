"""Operation counts of the trace record path (repro.sim.trace, repro.obs.sinks).

A sink that does not retain a kind gets the event's fields through
``TraceSink.emit_fields``; no ``TraceEvent`` is built for it unless the
sink asks for one.  These tests count the events built per trial, and
check that every sink still sees exactly what a memory sink keeps.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.sim.trace as trace_module
from repro.api import ChurnSpec, QueryConfig, run_query
from repro.obs.check import CheckingSink
from repro.obs.sinks import TRANSPORT_KINDS, CountingSink, JsonlStreamSink, TraceSink

BASE = dict(
    n=16, topology="er", aggregate="COUNT", seed=11,
    churn=ChurnSpec(kind="replacement", rate=1.0),
)
#: Lossy and faulted, with retransmission: every transport kind shows up.
LOSSY = dict(BASE, loss_rate=0.1, faults="chaos-mix", resilience="arq")


@pytest.fixture
def built(monkeypatch):
    """The kinds of every TraceEvent constructed while the test runs."""
    kinds: list[str] = []
    real = trace_module.TraceEvent

    def counting(time, kind, data):
        kinds.append(kind)
        return real(time, kind, data)

    monkeypatch.setattr(trace_module, "TraceEvent", counting)
    return kinds


def _run(**overrides):
    return run_query(QueryConfig(**dict(BASE, **overrides)))


def _fields(events):
    return [(e.time, e.kind, e.data) for e in events]


class TestEventsBuilt:
    @pytest.mark.parametrize("sink", ["counts", "null"])
    def test_no_transport_event_is_built(self, built, sink):
        outcome = _run(trace_sink=sink)
        assert sum(outcome.trace.count(k) for k in TRANSPORT_KINDS) > 0
        assert not TRANSPORT_KINDS & set(built)
        assert len(built) == outcome.trace.retained

    def test_memory_builds_one_per_record(self, built):
        outcome = _run(trace_sink="memory")
        assert len(built) == len(outcome.trace) == outcome.trace.retained

    def test_checking_sink_builds_one_per_record(self, built):
        outcome = _run(trace_sink="counts", check_invariants=True)
        assert isinstance(outcome.trace.sink, CheckingSink)
        assert len(built) == len(outcome.trace)
        assert outcome.trace.retained < len(outcome.trace)

    def test_record_returns_none_for_a_dropped_kind(self):
        log = trace_module.TraceLog(CountingSink())
        assert log.record(1.0, "send", msg_kind="X") is None
        assert log.record(1.0, "join", entity=0).kind == "join"
        assert len(log) == 2 and log.count("send") == 1


class TestSinksSeeEverything:
    def test_emit_only_subclass_receives_every_event(self):
        class Recorder(TraceSink):
            name = "recorder"

            def __init__(self):
                self.seen = []

            def emit(self, event):
                self.seen.append(event)

        recorder = Recorder()
        lossy = _run(trace_sink=recorder, **LOSSY)
        reference = _run(trace_sink="memory", **LOSSY)
        assert _fields(recorder.seen) == _fields(reference.trace.events())
        assert lossy.trace.summary() == reference.trace.summary()

    def test_counting_summary_matches_a_memory_tally(self):
        counts = _run(trace_sink="counts", **LOSSY)
        memory = _run(trace_sink="memory", **LOSSY)
        tally: dict[str, Counter] = {}
        for event in memory.trace.events():
            msg_kind = event.get("msg_kind")
            if event.kind in TRANSPORT_KINDS and msg_kind is not None:
                tally.setdefault(event.kind, Counter())[msg_kind] += 1
        assert {"drop", "msg_lost", "retransmit"} <= set(tally)
        expected = {
            kind: dict(sorted(by_msg.items()))
            for kind, by_msg in sorted(tally.items())
        }
        assert counts.trace.sink.summary() == expected

    def test_jsonl_stream_equals_saved_memory_trace(self, tmp_path):
        stream = tmp_path / "stream.jsonl"
        saved = tmp_path / "saved.jsonl"
        _run(trace_sink=JsonlStreamSink(stream), **LOSSY)
        _run(trace_sink="memory", **LOSSY).trace.save_jsonl(saved)
        assert stream.read_bytes() == saved.read_bytes()
