"""The benchmark's three workloads and the output checks each must pass.

Every workload is a plan built with ``repro.api`` from the workload seed
alone, so the same seed always gives the same inputs.  Each check holds
for any correct program and any seed: none pins a value that depends on
which random numbers the program draws.  Why each workload was chosen is
written next to its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.api import ChurnSpec, ExecutorSpec, ExperimentPlan, build_plan

#: E4-shaped query plan: n=32 wave COUNT over ER, E4's four churn rates
#: plus 1.0.  Trial cost rises with the rate, so with four equal groups
#: the median trial falls in the gap between the 0.5 and 2.0 groups, where
#: a handful of slow trials moves it by 20%.  The fifth group puts the
#: median inside a dense cluster.
SWEEP_RATES = (0.0, 0.5, 1.0, 2.0, 8.0)
SWEEP_TRIALS = 32
SWEEP_BASE = {"n": 32, "topology": "er", "aggregate": "COUNT", "horizon": 300.0}
#: Trials per pool task.  Fixed rather than adaptive, so the dispatched
#: chunk count is a pure function of the plan.
SWEEP_CHUNK = 4

FLOOD_N = 2000
FLOOD_BASE = {
    "n": FLOOD_N, "topology": "er", "aggregate": "COUNT", "horizon": 300.0,
    "trace_sink": "counts",
}

#: Replacement churn (``M_inf_bounded(n)``).  The query is issued one time
#: unit before the horizon, so its wave has barely started and the trial
#: is almost all joins and leaves.
CHURN_N = 2000
CHURN_BASE = {
    "n": CHURN_N, "topology": "er", "aggregate": "COUNT", "query_at": 9.0,
    "horizon": 10.0, "trace_sink": "counts",
    "churn": ChurnSpec(kind="replacement", rate=250.0),
}

Record = dict[str, Any]


def _check_sweep(record: Record, point: Record) -> list[str]:
    if point.get("churn_rate") == 0.0 and not record["ok"]:
        return ["static (churn_rate=0) query is not ok"]
    return []


def _check_flood(record: Record, point: Record) -> list[str]:
    problems = []
    if not record["terminated"]:
        problems.append("query did not terminate")
    if record["completeness"] != 1.0:
        problems.append(f"completeness {record['completeness']} != 1.0")
    if record["result"] != FLOOD_N:
        problems.append(f"COUNT returned {record['result']}, expected {FLOOD_N}")
    return problems


def _check_churn(record: Record, point: Record) -> list[str]:
    counters = record["metrics"].get("counters", {})
    joins = counters.get("churn.joins", 0)
    leaves = counters.get("churn.leaves", 0)
    if joins == 0 or joins != leaves:
        return [f"churn.joins={joins} churn.leaves={leaves}"]
    return []


@dataclass(frozen=True)
class Workload:
    """One named workload: its plan, its executor and its record check."""

    name: str
    build: Callable[[int], ExperimentPlan]
    executor: ExecutorSpec
    check: Callable[[Record, Record], list[str]]

    @property
    def jobs(self) -> int:
        return self.executor.effective_jobs()

    def problems(self, record: Record, point: Record) -> list[str]:
        """Why one trial record of the result document is wrong, if it is.

        A record with a non-empty ``status`` (quarantined) always fails.
        """
        if record.get("status"):
            return [f"trial status {record['status']!r}"]
        return self.check(record, point)


def _pool() -> ExecutorSpec:
    """The sweep's warm pool: two workers, never more than ``nproc``."""
    jobs = min(2, os.cpu_count() or 1)
    if jobs < 2:
        return ExecutorSpec.serial()
    return ExecutorSpec.parallel(jobs=jobs, chunk=SWEEP_CHUNK)


WORKLOADS: dict[str, Workload] = {
    "sweep": Workload(
        name="sweep",
        build=lambda seed: build_plan(
            "perfbench-sweep", grid={"churn_rate": list(SWEEP_RATES)},
            base=SWEEP_BASE, trials=SWEEP_TRIALS, root_seed=seed,
        ),
        executor=_pool(),
        check=_check_sweep,
    ),
    "flood": Workload(
        name="flood",
        build=lambda seed: build_plan(
            "perfbench-flood", base=FLOOD_BASE, trials=1, root_seed=seed,
        ),
        executor=ExecutorSpec.serial(),
        check=_check_flood,
    ),
    "churn": Workload(
        name="churn",
        build=lambda seed: build_plan(
            "perfbench-churn", base=CHURN_BASE, trials=1, root_seed=seed,
        ),
        executor=ExecutorSpec.serial(),
        check=_check_churn,
    ),
}
