"""Per-layer spans taken from outside the program.

:class:`Tracer` wraps the public functions of each layer of ``repro`` at
run time (class and module attributes are swapped for timing wrappers and
restored by :meth:`Tracer.uninstall`); nothing under ``src/`` changes.

Every wrapped call becomes a span: name, start, end, parent span and the
trial it ran in.  Spans stay in memory (the first :data:`SPAN_CAP` of
them) and are written at the end of a run as Chrome trace-event JSON,
which Perfetto opens.  Every call, retained or not, feeds the per-layer
aggregates: call count, self time (span duration minus the time its child
spans cover), and the part of that self time spent inside
``Simulator.run`` (the trial's ``simulate`` phase).

The hottest functions (``Metrics.inc``) are only counted; their time
lands in the self time of whichever span called them.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

#: Spans kept for the Chrome trace; later spans only feed the aggregates.
SPAN_CAP = 50_000

#: Event-label prefixes that get their own ``sim.scheduler.<kind>`` span.
ACTION_KINDS = ("deliver", "timer", "join", "leave", "churn")

#: Span name of the benchmark's per-trial root; not a layer of its own.
TRIAL = "trial"

#: The span that marks the ``simulate`` phase of a trial.
SIM_RUN = "sim.scheduler.run"


def action_kind(label: str) -> str:
    """``sim.scheduler.<kind>`` span name for a scheduled event's label."""
    prefix = label.split(":", 1)[0]
    if prefix in ACTION_KINDS:
        return f"sim.scheduler.{prefix}"
    return "sim.scheduler.other"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.sim_self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self.peak_live = 0
        self.trial = -1
        self._stack: list[list[Any]] = []
        self._next_id = 1
        self._in_sim = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as one span named ``name``.

        A call re-entered directly under a span of the same name (a
        ``super()`` chain of wrapped methods) is passed through, so one
        logical call counts once.
        """
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = stack[-1][2] if stack else 0
        frame = [name, 0.0, span_id]
        stack.append(frame)
        is_run = name == SIM_RUN
        if is_run:
            self._in_sim += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if is_run:
                self._in_sim -= 1
            duration = end - start
            own = duration - frame[1]
            if stack:
                stack[-1][1] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
            if self._in_sim or is_run:
                self.sim_self_s[name] = self.sim_self_s.get(name, 0.0) + own
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (name, start, end, span_id, parent, self.trial)
                )

    def reset(self) -> None:
        """Drop every aggregate and span (wrappers stay installed)."""
        self.calls.clear()
        self.self_s.clear()
        self.sim_self_s.clear()
        self.total_s.clear()
        self.spans.clear()
        self.peak_live = 0

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Time ``owner.attr`` (a function, method or classmethod)."""
        original = owner.__dict__[attr]
        call = self.call
        if isinstance(original, classmethod):
            func = original.__func__

            def timed_cls(*args: Any, **kwargs: Any) -> Any:
                return call(name, func, *args, **kwargs)

            self._patch(owner, attr, classmethod(timed_cls))
            return

        def timed(*args: Any, **kwargs: Any) -> Any:
            return call(name, original, *args, **kwargs)

        timed.__name__ = getattr(original, "__name__", attr)
        self._patch(owner, attr, timed)

    def wrap_count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        original = owner.__dict__[attr]
        calls = self.calls

        def counted(*args: Any, **kwargs: Any) -> Any:
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the public functions of every layer the benchmark reports."""
        from repro.churn import models as churn_models
        from repro.core.runs import Run
        from repro.core.spec import OneTimeQuerySpec
        from repro.engine import executor
        from repro.engine.plan import TrialSpec
        from repro.engine.recovery.checkpoint import CheckpointWriter
        from repro.engine.results import StreamingResultStore
        from repro.obs.metrics import Metrics
        from repro.protocols import base as protocols_base
        from repro.sim.events import CalendarEventQueue, HeapEventQueue
        from repro.sim.network import Network
        from repro.sim.node import Process
        from repro.sim.scheduler import Simulator
        from repro.sim.trace import TraceLog
        from repro.topology import attachment, generators

        # sim.events: the two backends, not the EventQueue facade — the
        # facade rebinds push/pop to its backend after migrating to the
        # calendar queue.
        for queue_cls in (HeapEventQueue, CalendarEventQueue):
            self._wrap_push(queue_cls)
            self.wrap(queue_cls, "pop", "sim.events.pop")
            self.wrap(queue_cls, "peek_time", "sim.events.peek")

        # sim.scheduler: the run loop, and every scheduled action timed
        # under its label's kind (deliver:, timer:, join, leave:, churn:).
        self.wrap(Simulator, "run", SIM_RUN)
        for attr in ("schedule", "at"):
            self._wrap_scheduling(Simulator, attr)

        # sim.network: membership (read and write side) and transport.
        self.wrap(Network, "present", "sim.network.present")
        self.wrap(Network, "add_process", "sim.network.add_process")
        self.wrap(Network, "remove_process", "sim.network.remove_process")
        self.wrap(Network, "send", "sim.network.send")

        # topology: generation at set-up, attachment of each newcomer.
        self.wrap(generators, "make", "topology.generate")
        for rule in _subclasses(attachment.AttachmentRule):
            if "choose" in rule.__dict__:
                self.wrap(rule, "choose", "topology.attach")

        # churn: install-time work; per-event work is the churn: action.
        self.wrap(churn_models.ChurnModel, "install", "churn.install")

        # protocols: message and membership-notification handlers.
        for cls in [Process, *_subclasses(protocols_base.AggregatingProcess)]:
            if "on_message" in cls.__dict__:
                self.wrap(cls, "on_message", "protocols.on_message")
            for attr in ("on_neighbor_join", "on_neighbor_leave"):
                if attr in cls.__dict__:
                    self.wrap(cls, attr, "protocols.on_neighbor")

        # obs: exact counts for the hottest call; trace records are timed.
        self.wrap_count(Metrics, "inc", "obs.metrics_inc")
        self.wrap(TraceLog, "record", "obs.trace_record")

        # core: checking a finished trial against the specification.
        self.wrap(Run, "from_trace", "core.run_from_trace")
        self.wrap(OneTimeQuerySpec, "check_query", "core.check_query")

        # engine: per-trial config, trial root, streamed results, journal.
        self.wrap(TrialSpec, "to_config", "engine.plan.to_config")
        self._wrap_trial(executor)
        self.wrap(StreamingResultStore, "append", "engine.results.append")
        self.wrap(CheckpointWriter, "append", "engine.recovery.append")

    def _wrap_push(self, queue_cls: Any) -> None:
        original = queue_cls.__dict__["push"]
        call = self.call

        def push(queue: Any, *args: Any, **kwargs: Any) -> Any:
            event = call("sim.events.push", original, queue, *args, **kwargs)
            live = len(queue)
            if live > self.peak_live:
                self.peak_live = live
            return event

        self._patch(queue_cls, "push", push)

    def _wrap_scheduling(self, sim_cls: Any, attr: str) -> None:
        original = sim_cls.__dict__[attr]
        call = self.call

        def schedule(sim: Any, when: float, action: Callable[[], Any],
                     *args: Any, label: str = "", **kwargs: Any) -> Any:
            kind = action_kind(label)

            def timed_action() -> Any:
                return call(kind, action)

            return original(sim, when, timed_action, *args, label=label,
                            **kwargs)

        self._patch(sim_cls, attr, schedule)

    def _wrap_trial(self, executor_module: Any) -> None:
        original = executor_module.__dict__["execute_trial"]
        call = self.call

        def execute_trial(spec: Any) -> Any:
            self.trial = spec.index
            try:
                return call(TRIAL, original, spec)
            finally:
                self.trial = -1

        self._patch(executor_module, "execute_trial", execute_trial)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def chrome_trace(self) -> dict[str, Any]:
        """The retained spans as a Chrome trace-event (Perfetto) object.

        One track per trial (``tid``); span and parent ids ride in
        ``args`` next to the trial id.
        """
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(span[1] for span in self.spans)
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": trial,
                "args": {"span": span_id, "parent": parent, "trial": trial},
            }
            for name, start, end, span_id, parent, trial in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass imported so far, depth first."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found
