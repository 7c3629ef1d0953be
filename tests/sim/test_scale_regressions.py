"""Regression tests for the scale refactor's specific hot-path guarantees.

Each test pins one of the O(n)-scan eliminations or memory bounds the
10⁵-entity work depends on, so a later "harmless" refactor cannot quietly
reintroduce a linear cost:

* ``Network.remove_process`` must not materialise the whole present set on
  a silent departure from a complete graph;
* cancelled events must not accumulate in either queue backend (tombstone
  compaction bounds storage by the live count);
* slot recycling keeps the slot arrays bounded by the peak population;
* ``sample_present`` / ``sample_neighbor`` draw uniformly without
  enumerating the population;
* a join with neighbors on a sparse graph, a uniform attachment pick, a
  replacement with an immortal querier and a capped arrival neither walk
  the slot map nor build the ``present()`` set.
"""

from __future__ import annotations

import random

import pytest

from repro.churn.lifetimes import ExponentialLifetime
from repro.churn.models import ArrivalDepartureChurn, ReplacementChurn
from repro.sim.events import (
    CalendarEventQueue,
    EventQueue,
    HeapEventQueue,
    _COMPACT_FLOOR,
)
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.scheduler import Simulator
from repro.sim.trace import TraceLog
from repro.topology.attachment import UniformAttachment


class _Null(Process):
    pass


class _IterationTrap(dict):
    """A pid->slot mapping that forbids whole-table iteration.

    ``remove_process`` with ``notify_leaves=False`` on a complete graph
    must be O(degree-of-change), so it has no business walking every
    present pid; neither has a join or a churn pick.  Lookups, ``len``
    and mutation stay legal; iteration raises.
    """

    def __iter__(self):
        raise AssertionError("iterated the whole present-pid table")

    def keys(self):
        raise AssertionError("materialised the present-pid key view")


@pytest.fixture
def present_calls(monkeypatch):
    """Count calls of ``Network.present`` (each one copies every pid)."""
    calls = []
    original = Network.present

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Network, "present", counting)
    return calls


def _sparse(n: int, seed: int = 1) -> tuple[Simulator, list[int]]:
    """A path of ``n`` processes (each attached to its predecessor)."""
    sim = Simulator(seed=seed)
    pids = [sim.spawn(_Null(0)).pid]
    for _ in range(n - 1):
        pids.append(sim.spawn(_Null(0), neighbors=[pids[-1]]).pid)
    return sim, pids


def _arm(sim: Simulator) -> None:
    sim.network._slot_of = _IterationTrap(sim.network._slot_of)


class TestSilentLeaveIsSublinear:
    def test_complete_graph_silent_leave_never_scans_population(self):
        sim = Simulator(seed=1, complete=True, notify_leaves=False)
        pids = [sim.spawn(_Null(0)).pid for _ in range(64)]
        # Arm the trap after setup: joins may enumerate, leaves must not.
        _arm(sim)
        sim.network.remove_process(pids[10])
        sim.network.remove_process(pids[20])
        assert sim.network.population() == 62

    def test_notifying_leave_still_reaches_everyone(self):
        seen = []

        class Watcher(Process):
            def on_neighbor_leave(self, pid):
                seen.append((self.pid, pid))

        sim = Simulator(seed=1, complete=True)
        pids = [sim.spawn(Watcher(0)).pid for _ in range(5)]
        sim.network.remove_process(pids[0])
        assert sorted(p for p, _ in seen) == sorted(pids[1:])


class TestMembershipChangesAreSublinear:
    """Joins, leaves and picks read the sorted member index, never a
    copy of the whole population."""

    def test_join_with_neighbors_on_sparse_graph(self, present_calls):
        sim, pids = _sparse(64)
        _arm(sim)
        proc = sim.spawn(_Null(0), neighbors=[pids[3], pids[40]])
        assert sim.network.neighbors(proc.pid) == {pids[3], pids[40]}
        assert sim.network.members()[-1] == proc.pid
        assert present_calls == []

    def test_uniform_attachment_choose(self, present_calls):
        sim, pids = _sparse(64)
        _arm(sim)
        chosen = UniformAttachment(3).choose(sim.network, random.Random(4))
        assert len(set(chosen)) == 3 and set(chosen) <= set(pids)
        assert present_calls == []

    def test_replacement_with_immortal_querier(self, present_calls):
        sim, pids = _sparse(64)
        churn = ReplacementChurn(lambda: _Null(0), rate=1.0)
        churn.install(sim)
        churn.immortal.add(pids[0])
        _arm(sim)
        for _ in range(20):
            churn._replace()
        assert churn.joins == churn.leaves == 20
        assert sim.network.is_present(pids[0])
        assert sim.network.population() == 64
        assert present_calls == []

    def test_capped_arrival(self, present_calls):
        sim, _ = _sparse(64)
        churn = ArrivalDepartureChurn(
            lambda: _Null(0), arrival_rate=1.0,
            lifetimes=ExponentialLifetime(10.0), concurrency_cap=65,
        )
        churn.install(sim)
        _arm(sim)
        churn._arrive()  # room for one more: joins
        churn._arrive()  # at the cap: rejected
        assert (churn.joins, churn.rejected) == (1, 1)
        assert sim.network.population() == 65
        assert present_calls == []


class TestTombstoneBound:
    @pytest.mark.parametrize("factory", [
        HeapEventQueue,
        CalendarEventQueue,
        lambda: EventQueue(calendar_threshold=None),
        lambda: EventQueue(calendar_threshold=1000),
    ])
    def test_cancelling_10k_events_keeps_storage_bounded(self, factory):
        queue = factory()
        keep = [queue.push(float(i), lambda: None) for i in range(100)]
        for i in range(10_000):
            event = queue.push(100.0 + i * 0.01, lambda: None)
            event.cancel()
            queue.note_cancelled()
            # Storage holds the live events plus at most max(live, floor)
            # tombstones: cancellation can never leak.
            assert queue.storage_size() <= 2 * max(len(queue), _COMPACT_FLOOR) + 1
        assert len(queue) == len(keep)
        times = [queue.pop().time for _ in range(len(keep))]
        assert times == sorted(times)

    def test_scheduler_timer_churn_does_not_leak(self):
        class Rearm(Process):
            def on_start(self):
                self.set_timer(1.0, "t")

            def on_timer(self, name, payload):
                # cancel_timer + set_timer churn on every fire
                self.cancel_timer("t")
                self.set_timer(1.0, "t")

        sim = Simulator(seed=3)
        for _ in range(20):
            sim.spawn(Rearm(0))
        sim.run(until=500.0)
        assert sim.queue.storage_size() <= 2 * max(len(sim.queue), _COMPACT_FLOOR) + 1


class TestSlotRecycling:
    def test_slots_bounded_by_peak_population(self):
        sim = Simulator(seed=5, complete=True, notify_leaves=False,
                        notify_joins=False)
        peak = 50
        pids = [sim.spawn(_Null(0)).pid for _ in range(peak)]
        for _ in range(10):  # 10 full churn generations
            for pid in pids:
                sim.network.remove_process(pid)
            pids = [sim.spawn(_Null(0)).pid for _ in range(peak)]
        assert sim.network.population() == peak
        assert len(sim.network._procs) <= peak + 1

    def test_recycled_slots_do_not_alias_old_neighbors(self):
        sim = Simulator(seed=6)
        a = sim.spawn(_Null(0)).pid
        b = sim.spawn(_Null(0), neighbors=[a]).pid
        sim.network.remove_process(a)
        c = sim.spawn(_Null(0)).pid  # reuses a's slot
        assert sim.network.neighbors(c) == frozenset()
        assert sim.network.neighbors(b) == frozenset()


class TestUniformSampling:
    def test_sample_present_uniform_and_excluding(self):
        sim = Simulator(seed=7, complete=True)
        pids = [sim.spawn(_Null(0)).pid for _ in range(8)]
        rng = random.Random(99)
        draws = {sim.network.sample_present(rng) for _ in range(400)}
        assert draws == set(pids)
        for _ in range(200):
            assert sim.network.sample_present(rng, exclude=pids[0]) != pids[0]

    def test_sample_neighbor_matches_membership(self):
        sim = Simulator(seed=8)
        a = sim.spawn(_Null(0)).pid
        b = sim.spawn(_Null(0), neighbors=[a]).pid
        c = sim.spawn(_Null(0), neighbors=[a]).pid
        rng = random.Random(1)
        draws = {sim.network.sample_neighbor(a, rng) for _ in range(100)}
        assert draws == {b, c}
        assert sim.network.sample_neighbor(b, rng) == a

    def test_random_neighbor_on_process(self):
        sim = Simulator(seed=9, complete=True)
        procs = [sim.spawn(_Null(0)) for _ in range(4)]
        target = procs[0].random_neighbor()
        assert target in {p.pid for p in procs[1:]}
        assert procs[0].degree() == 3
