"""E23 — The scale curve: per-event cost must stay flat as n grows.

Claim: after the slot-backed refactor the simulator's per-event cost is
O(1) in the population — no hidden O(n) scan on the ping/send/leave hot
path — so events/sec at n=2000 stays within a small constant of n=50.
The seed core fails this by design: its complete-graph neighbor access
sorted the whole present set per ping (O(n log n)), collapsing throughput
~70x over the same range.

The full curve (n up to 10^5, with peak-RSS and the committed
BENCH_scale.json baseline) lives in ``benchmarks/emit_scale.py``; this
test pins the asymptotic *shape* at CI-friendly sizes.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.obs.sinks import CountingSink
from repro.sim.node import Process
from repro.sim.scheduler import Simulator

PERIOD = 1.0
SIZES = [50, 500, 2000]
HORIZONS = {50: 40.0, 500: 8.0, 2000: 4.0}


class PingNode(Process):
    """Same entity as emit_scale.py's storm: ping one random neighbor."""

    def on_start(self):
        self.set_timer(self.rng.uniform(0.0, PERIOD), "ping")

    def on_timer(self, name, payload):
        target = self.random_neighbor()
        if target is not None:
            self.send(target, "PING")
        self.set_timer(PERIOD, "ping")


def run_point(n: int, horizon: float, seed: int = 2007):
    sim = Simulator(seed=seed, complete=True, notify_leaves=False,
                    notify_joins=False, trace_sink=CountingSink())
    pids = [sim.spawn(PingNode(1.0)).pid for _ in range(n)]
    rng = sim.rng_for("scale-churn")
    for _ in range(n // 20):
        at = rng.uniform(0.1, horizon)
        sim.schedule_leave(at, rng.choice(pids))
        sim.schedule_join(at, lambda: PingNode(1.0), lambda present: ())
    start = time.perf_counter()
    sim.run(until=horizon, max_events=50_000_000)
    wall = time.perf_counter() - start
    return sim.events_executed, wall


def test_e23_scale_curve():
    rows = []
    cost = {}
    for n in SIZES:
        events, wall = run_point(n, HORIZONS[n])
        per_event_us = wall / events * 1e6
        cost[n] = per_event_us
        rows.append([n, events, f"{events / wall:,.0f}",
                     f"{per_event_us:.1f}"])
    emit(render_table(
        ["n", "events", "events/sec", "us/event"],
        rows,
        title="E23: scale curve (ping storm, silent churn, counts sink)",
    ))
    # The asymptotic claim: 40x the population may cost at most 10x per
    # event (scheduling gets deeper, caches get colder — but nothing may
    # scan the population).  The seed core sits near 70x here.
    assert cost[2000] / cost[50] < 10.0, cost


def test_e23_churn_does_not_scan_population():
    # Silent leave+join on a complete graph is O(1): time 200 churn ops at
    # two population sizes an order of magnitude apart and require the
    # per-op cost not to scale with n.
    def churn_cost(n: int) -> float:
        sim = Simulator(seed=11, complete=True, notify_leaves=False,
                        notify_joins=False, trace_sink=CountingSink())
        pids = [sim.spawn(PingNode(1.0)).pid for _ in range(n)]
        start = time.perf_counter()
        for i in range(200):
            sim.network.remove_process(pids[i])
            pids.append(sim.spawn(PingNode(1.0)).pid)
        return (time.perf_counter() - start) / 200

    small, large = churn_cost(200), churn_cost(4000)
    assert large / small < 8.0, (small, large)
