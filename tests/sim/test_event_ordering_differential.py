"""The event-ordering contract, checked against a brute-force model.

The simulator's determinism rests on one total order: events fire by
``(time, priority, seq)``.  Each test here feeds one schedule to
:class:`EventQueue` and to :class:`_ModelQueue` — a plain list popped by
``min`` over that key, with the same cancellation rule — and asserts the
pop sequences match event-for-event.  The schedules cover ties, mixed
priorities, interleaved push/pop, cancellations, and clustered and
far-flung times.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.errors import SchedulingError
from repro.sim.events import (
    EventQueue,
    PRIORITY_LATE,
    PRIORITY_MEMBERSHIP,
    PRIORITY_NORMAL,
)
from repro.sim.scheduler import Simulator


class _ModelQueue:
    """Reference: pending ``(time, priority, seq)`` keys, popped by ``min``."""

    def __init__(self):
        self.pending = []
        self.pushed = 0

    def push(self, time, priority):
        self.pending.append((time, priority, self.pushed))
        self.pushed += 1

    def pop(self):
        key = min(self.pending)
        self.pending.remove(key)
        return key

    def cancel(self, seq):
        self.pending = [key for key in self.pending if key[2] != seq]


def _run_schedule(schedule):
    """Apply a (op, args) schedule to a fresh queue and to the model.

    Ops: ``("push", time, priority, label)``, ``("pop",)``,
    ``("cancel", k)`` (cancel the k-th pushed, if still pending —
    ``note_cancelled`` is the scheduler's accounting hook for *pending*
    cancellations only, matching how the simulator uses it).  Both sides
    are drained at the end; returns the two pop sequences.
    """
    queue = EventQueue()
    model = _ModelQueue()
    handles = []
    popped, expected = [], []
    popped_seqs = set()
    for op in schedule:
        if op[0] == "push":
            _, time, priority, label = op
            handles.append(
                queue.push(time, lambda: None, priority=priority, label=label)
            )
            model.push(time, priority)
        elif op[0] == "pop":
            if queue:
                event = queue.pop()
                popped.append((event.time, event.priority, event.seq))
                popped_seqs.add(event.seq)
            if model.pending:
                expected.append(model.pop())
        elif op[0] == "cancel":
            handle = handles[op[1] % len(handles)]
            if not handle.cancelled and handle.seq not in popped_seqs:
                handle.cancel()
                queue.note_cancelled()
                model.cancel(handle.seq)
        assert len(queue) == len(model.pending), op
    while queue:
        event = queue.pop()
        popped.append((event.time, event.priority, event.seq))
    while model.pending:
        expected.append(model.pop())
    return popped, expected


def _assert_matches_model(schedule):
    popped, expected = _run_schedule(schedule)
    assert popped == expected


def test_simple_times_pop_in_order():
    schedule = [("push", t, PRIORITY_NORMAL, "") for t in
                [5.0, 1.0, 3.0, 2.0, 4.0, 0.5, 10.0]]
    _assert_matches_model(schedule)


def test_ties_pop_in_insertion_order():
    schedule = [("push", 1.0, PRIORITY_NORMAL, f"e{i}") for i in range(50)]
    _assert_matches_model(schedule)


def test_priorities_break_ties_before_sequence():
    schedule = []
    for i in range(30):
        priority = [PRIORITY_MEMBERSHIP, PRIORITY_NORMAL, PRIORITY_LATE][i % 3]
        schedule.append(("push", 2.0, priority, f"p{priority}"))
    _assert_matches_model(schedule)


def test_interleaved_push_and_pop():
    rng = random.Random(7)
    schedule = []
    for _ in range(400):
        if rng.random() < 0.6:
            schedule.append(
                ("push", rng.uniform(0, 100), rng.choice([-1, 0, 1]), "")
            )
        else:
            schedule.append(("pop",))
    _assert_matches_model(schedule)


def test_cancellations_are_skipped_identically():
    rng = random.Random(11)
    schedule = []
    pushes = 0
    for _ in range(500):
        roll = rng.random()
        if roll < 0.5:
            schedule.append(("push", rng.uniform(0, 50), 0, ""))
            pushes += 1
        elif roll < 0.75 and pushes:
            schedule.append(("cancel", rng.randrange(pushes)))
        else:
            schedule.append(("pop",))
    _assert_matches_model(schedule)


def test_clustered_and_far_future_times():
    # A tight cluster now plus far-flung outliers and a late straggler
    # that lands inside the cluster.
    schedule = [("push", 0.001 * i, 0, "") for i in range(100)]
    schedule += [("push", 1e6 + i, 0, "") for i in range(5)]
    schedule += [("push", 0.05, 0, "")]
    _assert_matches_model(schedule)


def test_identical_times_at_scale():
    # Thousands of events at one instant: order must be pure insertion
    # order.
    schedule = [("push", 42.0, 0, "") for _ in range(3000)]
    _assert_matches_model(schedule)


def test_random_schedules_fuzz():
    for seed in range(10):
        rng = random.Random(seed)
        schedule = []
        pushes = 0
        for _ in range(300):
            roll = rng.random()
            if roll < 0.55:
                schedule.append((
                    "push",
                    round(rng.uniform(0, rng.choice([1.0, 100.0, 1e5])), 6),
                    rng.choice([-1, 0, 0, 0, 1]),
                    "",
                ))
                pushes += 1
            elif roll < 0.8 and pushes:
                schedule.append(("cancel", rng.randrange(pushes)))
            else:
                schedule.append(("pop",))
        _assert_matches_model(schedule)


def test_pop_from_empty_raises_on_all_backends():
    queue = EventQueue()
    with pytest.raises(SchedulingError):
        queue.pop()
    queue.push(1.0, lambda: None)
    queue.pop()
    with pytest.raises(SchedulingError):
        queue.pop()


def test_nan_time_rejected_on_all_backends():
    queue = EventQueue()
    with pytest.raises(SchedulingError):
        queue.push(float("nan"), lambda: None)
    assert len(queue) == 0


def test_negative_delay_rejected_by_scheduler():
    sim = Simulator(seed=1)
    with pytest.raises(SchedulingError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SchedulingError):
        sim.at(-1.0, lambda: None)
