#!/usr/bin/env python3
"""Print the sha256 of the result document of a fixed set of plans.

A change that must keep documents byte-identical (a faster data
structure, a refactor) is checked by running this script on the commit
before and after it and comparing the output::

    PYTHONPATH=src python benchmarks/doc_digests.py > after.txt
    (cd ../parent && PYTHONPATH=src python benchmarks/doc_digests.py) > before.txt
    diff before.txt after.txt

The plans are the ``sweep`` and ``churn`` workloads of ``perfbench`` at
seeds 1 and 7, every ``ChurnSpec`` kind with ``protect_querier`` on and
off, a crash fault under churn, a partition under churn, and push-sum
gossip in both modes under churn.  Three more plans cover the trace
sinks that do not keep transport events: the ``flood`` workload at seed
1 (n=2000 under the ``counts`` sink, with its histograms and per-kind
counters), replacement churn under the ``null`` sink, and replacement
churn with ``check_invariants`` (a checking sink over ``counts``).

Each line is ``<sha256>  <plan>``.  The ``ALL`` line digests the first
eighteen plans together, as it did before the sink plans were added, so
its value can be compared with older outputs; ``ALL+sinks`` digests every
plan.  The script uses only ``repro.api`` and the ``perfbench`` workload
plans, so it runs unchanged on older commits that have both.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from repro.api import ChurnSpec, ExecutorSpec, build_plan, run_plan

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

KINDS = {
    "replacement": ChurnSpec(kind="replacement", rate=2.0),
    "arrival-departure": ChurnSpec(
        kind="arrival-departure", rate=1.0, lifetime_mean=20.0,
        doom_initial=True,
    ),
    "arrival-departure-capped": ChurnSpec(
        kind="arrival-departure", rate=2.0, lifetime_mean=20.0, cap=36,
    ),
    "finite": ChurnSpec(kind="finite", rate=1.0, total_arrivals=16,
                        lifetime_mean=30.0),
    "phased": ChurnSpec(kind="phased", rate=4.0, storm_length=10.0,
                        calm_length=10.0),
}
KIND_BASE = {"n": 32, "topology": "er", "aggregate": "COUNT", "horizon": 150.0}


def plans() -> list[tuple[str, object]]:
    """Every plan the script digests, with its name."""
    named = []
    for workload in ("sweep", "churn"):
        for seed in (1, 7):
            named.append((f"{workload}@{seed}", WORKLOADS[workload].build(seed)))
    for kind, churn in KINDS.items():
        for protect in (True, False):
            base = dict(KIND_BASE, churn=churn, protect_querier=protect)
            named.append((
                f"{kind}/protect={protect}",
                build_plan(f"digest-{kind}", base=base, trials=4, root_seed=2007),
            ))
    base = dict(KIND_BASE, churn=KINDS["replacement"], faults="chaos-mix")
    named.append(("replacement+chaos-mix",
                  build_plan("digest-faults", base=base, trials=4,
                             root_seed=2007)))
    base = dict(KIND_BASE, churn=KINDS["replacement"], faults="split-brain")
    named.append(("replacement+split-brain",
                  build_plan("digest-partition", base=base, trials=4,
                             root_seed=2007)))
    for mode in ("avg", "count"):
        base = {"n": 32, "topology": "er", "mode": mode,
                "churn": KINDS["replacement"]}
        named.append((f"gossip-{mode}+replacement",
                      build_plan(f"digest-gossip-{mode}", kind="gossip",
                                 base=base, trials=4, root_seed=2007)))
    return named


def sink_plans() -> list[tuple[str, object]]:
    """The plans run under sinks that keep no transport events."""
    replacement = dict(KIND_BASE, churn=KINDS["replacement"])
    return [
        ("flood@1", WORKLOADS["flood"].build(1)),
        ("replacement/sink=null",
         build_plan("digest-null", base=dict(replacement, trace_sink="null"),
                    trials=4, root_seed=2007)),
        ("replacement/check_invariants",
         build_plan("digest-checking",
                    base=dict(replacement, trace_sink="counts",
                              check_invariants=True),
                    trials=4, root_seed=2007)),
    ]


def main() -> int:
    named = plans()
    digests = []
    for name, plan in named + sink_plans():
        text = run_plan(plan, executor=ExecutorSpec.serial()).to_json()
        digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        print(f"{digests[-1]}  {name}", flush=True)
    for label, chosen in (("ALL", digests[:len(named)]), ("ALL+sinks", digests)):
        total = hashlib.sha256("".join(chosen).encode("ascii")).hexdigest()
        print(f"{total}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
