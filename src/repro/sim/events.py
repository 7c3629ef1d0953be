"""The event queue of the discrete-event simulator.

Ordering is total and deterministic: events fire by ``(time, priority,
sequence)``, so two events scheduled for the same instant fire in
scheduling order and simulations are exactly reproducible for a given
seed.  The priority is what lets the adversary control ties: a
membership change at time t fires before the deliveries at t.

:class:`EventQueue` is one binary heap whose entries are ``(time,
priority, seq, event)`` tuples.  ``seq`` is unique, so ``heapq`` settles
every comparison on the first three fields in C and never compares two
:class:`Event` objects.

Cancellation is cooperative and lazy (:meth:`Event.cancel` just sets a
flag), but not leaky: the queue counts tombstones and compacts its
storage once cancelled-but-unpopped entries outnumber live ones, so
memory stays proportional to the live event count.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sim.errors import SchedulingError

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for membership changes; they fire before message deliveries
#: scheduled at the same instant so a leave at time t suppresses deliveries
#: at time t (the adversary controls ties).
PRIORITY_MEMBERSHIP = -1
#: Priority for bookkeeping that must run after everything else at an instant.
PRIORITY_LATE = 1

#: Tombstone compaction floor: below this many cancelled entries the
#: queue does not bother rebuilding storage.
_COMPACT_FLOOR = 64


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Attributes:
        time: simulation time at which the event fires.
        priority: tie-break between events at the same instant (lower first).
        seq: global sequence number; makes ordering total.
        action: zero-argument callable executed when the event fires.
        label: human-readable tag used in traces and debugging.
        cancelled: cooperatively-cancelled events are skipped when popped.
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark this event so the scheduler skips it."""
        self.cancelled = True


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    A binary heap of ``(time, priority, seq, event)`` tuples: O(log n)
    push and pop, with the key compared as plain tuples.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._tombstones = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def storage_size(self) -> int:
        """Number of entries physically held (live + tombstones)."""
        return len(self._heap)

    def push(
        self,
        time: float,
        action: Callable[[], Any],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        if time != time:  # NaN guard
            raise SchedulingError("event time is NaN")
        seq = next(self._counter)
        event = Event(time, priority, seq, action, label)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            SchedulingError: if the queue is empty.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                if self._tombstones:
                    self._tombstones -= 1
                continue
            self._live -= 1
            return event
        raise SchedulingError("pop from empty event queue")

    def peek_time(self) -> float | None:
        """Return the firing time of the earliest live event, or ``None``."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            if self._tombstones:
                self._tombstones -= 1
        return heap[0][0] if heap else None

    def note_cancelled(self) -> None:
        """Account for an event cancelled through its handle.

        :meth:`Event.cancel` does not know about the queue, so the scheduler
        calls this to keep ``len()`` accurate.  Once tombstones outnumber
        live events (i.e. exceed half the heap) the storage is compacted.
        """
        if self._live > 0:
            self._live -= 1
            self._tombstones += 1
            if self._tombstones > max(self._live, _COMPACT_FLOOR):
                self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify; memory stays O(live)."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._tombstones = 0

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
        self._tombstones = 0


#: Former name of the heap queue, kept only for the perfbench tracer's import.
HeapEventQueue = EventQueue


class CalendarEventQueue(EventQueue):
    # Never instantiated: the perfbench tracer wraps push/pop/peek_time from
    # each imported class's own __dict__, so this name needs its own
    # entries; aliasing it to EventQueue would wrap EventQueue twice.
    push = EventQueue.push
    pop = EventQueue.pop
    peek_time = EventQueue.peek_time
