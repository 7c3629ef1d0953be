#!/usr/bin/env python3
"""Scale-curve emitter: events/sec vs population size into BENCH_scale.json.

The scenario is a **ping storm under silent churn** — the regime the
slot-backed core was built for: a complete communication graph, every
entity re-arming a 1.0-period timer and pinging one uniformly random
neighbor per period, with ``n//20`` scheduled leave+join pairs spread over
the horizon.  Arrivals and departures are silent (``notify_joins=False``,
``notify_leaves=False``): at 10⁴⁺ entities a perfect membership oracle is
both unrealistic (the paper's large-scale systems have *local* knowledge)
and an O(n)-per-change cost that would swamp the measurement.

Per size the payload records ``events_per_sec_n<N>`` (higher is better),
``peak_rss_kb_n<N>`` and ``sim_wall_s_n<N>`` (lower is better) — names
``repro bench diff`` gates by family, so committing this file as a
baseline turns scale regressions into CI failures.

Seed-core reference (same scenario on the pre-refactor core, which always
notifies joins and pays an O(n log n) neighbor sort per ping):
n=32: ~74k ev/s - n=1k: ~17k ev/s - n=10k: ~1.1k ev/s.  The n=10k point
must beat the seed by >= 10x; ``--check`` asserts a machine-independent
ratio instead, for CI.

Run:  PYTHONPATH=src python benchmarks/emit_scale.py [--output FILE]

``--smoke`` runs only n in {32, 10k} with short horizons for CI;
``--check`` additionally asserts the scale curve's *shape*: per-event cost
at n=10k must stay within 50x of n=32 (the seed core is ~90x off).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.obs.sinks import CountingSink
from repro.sim.node import Process
from repro.sim.scheduler import Simulator

#: Ping period per entity in sim-time units.
PERIOD = 1.0

#: Population sizes and sim horizons.  Horizons shrink as n grows so every
#: point executes a comparable (6-figure) event count in tolerable wall
#: time; events/sec is horizon-independent once n dominates.
SIZES: dict[int, float] = {32: 200.0, 1_000: 60.0, 10_000: 12.0, 100_000: 4.0}

SMOKE_SIZES: dict[int, float] = {32: 50.0, 10_000: 2.0}

#: Seed-core events/sec on this scenario (measured on the growth seed,
#: Linux x86-64 container, 2026-08).  Machine-dependent — context for the
#: committed payload, not a gate.
SEED_REFERENCE = {32: 73_981.0, 1_000: 17_236.0, 10_000: 1_084.5}


class PingNode(Process):
    """One entity of the storm: ping a random neighbor every PERIOD."""

    def on_start(self) -> None:
        # Uniform initial phase so the pings spread over the period
        # instead of arriving as one synchronized burst.
        self.set_timer(self.rng.uniform(0.0, PERIOD), "ping")

    def on_timer(self, name: str, payload: object) -> None:
        target = self.random_neighbor()
        if target is not None:
            self.send(target, "PING")
        self.set_timer(PERIOD, "ping")


def _peak_rss_kb() -> float:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_scale_trial(n: int, horizon: float, seed: int = 2007) -> dict:
    """One ping-storm trial; returns the per-size measurement dict.

    ``peak_rss_kb`` is the *process* high-water mark, so when sizes run in
    increasing order each value reflects the largest trial so far — only
    the largest n's reading is a true per-trial figure.
    """
    sim = Simulator(seed=seed, complete=True, notify_leaves=False,
                    notify_joins=False, trace_sink=CountingSink())
    t0 = time.perf_counter()
    pids = [sim.spawn(PingNode(1.0)).pid for _ in range(n)]
    setup_s = time.perf_counter() - t0
    rng = sim.rng_for("scale-churn")
    for _ in range(n // 20):
        at = rng.uniform(0.1, horizon)
        sim.schedule_leave(at, rng.choice(pids))
        sim.schedule_join(at, lambda: PingNode(1.0), lambda present: ())
    t0 = time.perf_counter()
    sim.run(until=horizon, max_events=500_000_000)
    sim_wall_s = time.perf_counter() - t0
    return {
        "n": n,
        "horizon": horizon,
        "setup_s": round(setup_s, 3),
        "sim_wall_s": round(sim_wall_s, 3),
        "events": sim.events_executed,
        "events_per_sec": round(sim.events_executed / sim_wall_s, 1)
        if sim_wall_s > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_scale.json")
    parser.add_argument("--smoke", action="store_true",
                        help="only n in {32, 10k}, short horizons (CI)")
    parser.add_argument("--check", action="store_true",
                        help="assert the curve's shape: per-event cost at "
                        "n=10k within 50x of n=32")
    args = parser.parse_args()

    sizes = SMOKE_SIZES if args.smoke else SIZES
    points = []
    for n in sorted(sizes):  # increasing, so ru_maxrss stays interpretable
        point = run_scale_trial(n, sizes[n])
        ref = SEED_REFERENCE.get(n)
        if ref:
            point["seed_reference_events_per_sec"] = ref
            point["speedup_vs_seed"] = round(point["events_per_sec"] / ref, 1)
        print(f"n={n:>6}: {point['events_per_sec']:>9.0f} ev/s "
              f"({point['events']} events in {point['sim_wall_s']}s, "
              f"setup {point['setup_s']}s, "
              f"rss {point['peak_rss_kb'] / 1024:.0f} MB)")
        points.append(point)

    payload = {
        "benchmark": "scale-curve",
        "scenario": "ping-storm: complete graph, silent churn (n//20 "
                    "leave+join pairs), 1.0-period timers, counts sink",
        "smoke": args.smoke,
        "seed": 2007,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "points": points,
    }
    # Flat per-size scalars so `repro bench diff` gates them by family.
    for point in points:
        n = point["n"]
        payload[f"events_per_sec_n{n}"] = point["events_per_sec"]
        payload[f"peak_rss_kb_n{n}"] = point["peak_rss_kb"]
        payload[f"sim_wall_s_n{n}"] = point["sim_wall_s"]

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check:
        by_n = {p["n"]: p for p in points}
        small, large = by_n[32], by_n[10_000]
        small_cost = 1.0 / small["events_per_sec"]
        large_cost = 1.0 / large["events_per_sec"]
        ratio = large_cost / small_cost
        print(f"per-event cost ratio n=10k/n=32: {ratio:.1f}x (limit 50x)")
        if ratio > 50.0:
            raise SystemExit(
                f"scale check failed: per-event cost grew {ratio:.1f}x from "
                "n=32 to n=10k (> 50x) — an O(n) cost is back on the hot "
                "path (seed core sits near 90x)"
            )
        print("scale check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
