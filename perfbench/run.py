#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  Each
pass builds the workload's plan, starts its executor, and streams the plan
to JSONL with a checkpoint journal through ``repro.api.stream_plan`` — the
path of ``repro sweep --output x.jsonl --checkpoint``.  Passes repeat
until ``--seconds`` have been spent (at least :data:`MIN_PASSES`), and
every figure is a median or a quantile over them, in reference seconds
(see ``calibration.py``).

``--trace 1`` runs the plan on the serial executor once untraced and twice
with every layer's public functions wrapped (see ``tracer.py``), checks
that the wrapper call counts repeat exactly, writes the first traced run's
spans as Chrome trace JSON under ``.perfbench/`` and reports per-layer
counts and self times.

Every run checks its outputs.  Passes 0 and 1 run the same plan, and
their streams must match the reference execution byte for byte.  Every
stream must reload with ``load_document`` and pass the workload's record
checks, and the journal must resume to the same bytes.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: Fewest measured passes per run, however short ``--seconds`` is.
MIN_PASSES = 3


#: Calibration samples each worker of a pass's executor takes after the
#: pass, on that executor (see ``calibration.py``).
CALIBRATION_SAMPLES = 4

#: Layer spans whose self times make up "membership, churn and
#: attachment" and "send, deliver, protocol and queue" work.
MEMBERSHIP_SPANS = (
    "sim.network.present", "sim.network.add_process",
    "sim.network.remove_process", "topology.attach", "sim.scheduler.churn",
)
TRANSPORT_SPANS = (
    "sim.network.send", "sim.scheduler.deliver", "protocols.on_message",
    "sim.events.push", "sim.events.pop", "sim.events.peek",
    "obs.trace_record",
)


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    # Scratch files of the program (pool heartbeats) stay in the checkout.
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)


def _peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Pass:
    """One execution of a workload's plan."""

    setup_s: float
    wall_s: float
    trials: list[Any]
    stream: bytes
    journal_bytes: int
    chunks: int = 0
    calibration: list[float] = field(default_factory=list)

    def full_setup_s(self) -> float:
        """Set-up time.  A single-trial pass adds the trial's own set-up,
        its wall time outside the ``simulate`` and ``check`` phases
        (topology generation and spawning the population)."""
        if len(self.trials) != 1:
            return self.setup_s
        (trial,) = self.trials
        return (self.setup_s + trial.wall_time - _phase(trial, "simulate")
                - _phase(trial, "check"))


def _phase(result: Any, name: str) -> float:
    return result.metrics.get("timings", {}).get(name, 0.0)


@dataclass
class Checks:
    """Output checks of one run: trials attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, trials: int, problem: str) -> None:
        self.failed += trials
        if len(self.problems) < 20:
            self.problems.append(problem)


class Bench:
    """Runs one workload for one seed inside a private work directory."""

    def __init__(self, workload: Any, seed: int, work: Path) -> None:
        from repro.api import ExecutorSpec

        self.workload = workload
        self.seed = seed
        self.work = work
        self.serial = ExecutorSpec.serial()
        self.plan = workload.build(seed)
        self.checks = Checks()

    def paths(self, tag: str) -> tuple[str, str]:
        """Fresh stream and journal paths (an existing journal would
        auto-resume and run nothing)."""
        stream = str(self.work / f"{tag}.jsonl")
        journal = str(self.work / f"{tag}.checkpoint.jsonl")
        for path in (stream, journal):
            if os.path.exists(path):
                os.unlink(path)
        return stream, journal

    def run_pass(self, spec: Any, tag: str, tracer: Any = None,
                 seed: int | None = None, calibrate: bool = False) -> Pass:
        """Build the plan, start and warm the executor, stream the plan.

        The plan comes from ``seed``, by default the run's own seed.  With
        ``calibrate``, every worker of the executor then takes calibration
        samples, so they see the machine as the pass's trials did.
        """
        import calibration
        from repro.api import stream_plan

        stream, journal = self.paths(tag)
        trials: list[Any] = []

        def collect(done: int, total: int, result: Any) -> None:
            trials.append(result)

        start = time.perf_counter()
        plan = _call(tracer, "engine.plan.build", self.workload.build,
                     self.seed if seed is None else seed)
        backend = spec.make()
        try:
            if backend.jobs > 1:
                # Fork the pool and run a task on it before timing starts.
                backend.map(abs, range(backend.jobs * 2))
            setup = time.perf_counter() - start
            start = time.perf_counter()
            stream_plan(plan, stream, executor=backend, checkpoint=journal,
                        progress=collect)
            wall = time.perf_counter() - start
            chunks = backend.chunks_dispatched
            samples = backend.map(
                calibration.sample, range(backend.jobs * CALIBRATION_SAMPLES)
            ) if calibrate else []
        finally:
            backend.close()
        return Pass(setup, wall, trials, Path(stream).read_bytes(),
                    os.path.getsize(journal), chunks, samples)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def check(self, run: Pass, label: str, reference: bytes | None = None) -> None:
        """Check one pass's output; count its trials as attempted.

        The stream is reloaded with ``load_document``, must hold every
        trial of the plan, and every record must pass the workload's
        check.  Given the stream of another execution of the same plan, it
        must also equal that stream line by line: the records carry the
        program's own counters, so any drift shows here.
        """
        from repro.api import load_document, validate_document

        expected = len(self.plan)
        self.checks.attempted += expected
        path = self.work / "check.jsonl"
        path.write_bytes(run.stream)
        document = load_document(str(path))
        validate_document(document)
        seen = 0
        for entry in document["points"]:
            for record in entry["trials"]:
                seen += 1
                for problem in self.workload.problems(record, entry["point"]):
                    self.checks.fail(1, f"{label}, trial {record['index']}: "
                                     f"{problem}")
        if seen != expected:
            self.checks.fail(abs(expected - seen),
                             f"{label}: document holds {seen} of {expected} trials")
        if reference is None:
            return
        lines = run.stream.splitlines()
        wanted = reference.splitlines()
        if len(lines) != len(wanted) or lines[0] != wanted[0]:
            self.checks.fail(expected, f"{label}: stream header or length "
                             "differs from the reference execution")
            return
        drift = sum(a != b for a, b in zip(lines[1:], wanted[1:]))
        if drift:
            self.checks.fail(drift, f"{label}: {drift} trial records differ "
                             "from the reference execution")

    def check_resume(self, journal_from: str, reference: bytes,
                     tracer: Any = None) -> float:
        """Resume from a complete journal; the stream must come out equal."""
        from repro.api import stream_plan

        stream, _ = self.paths("resumed")
        start = time.perf_counter()
        _call(tracer, "engine.recovery.resume", stream_plan, self.plan,
              stream, executor=self.serial, resume_from=journal_from)
        elapsed = time.perf_counter() - start
        if Path(stream).read_bytes() != reference:
            self.checks.fail(len(self.plan), "stream resumed from the "
                             "checkpoint differs from the original")
        return elapsed


def pass_seed(seed: int, number: int) -> int:
    """Plan seed of measured pass ``number``.

    Passes 0 and 1 both run the run's own seed, so their outputs must
    match exactly.  Later passes run further plans derived from it, so a
    run's per-trial quantiles rest on more distinct trials than one plan
    holds.
    """
    return seed if number < 2 else seed * 1000 + number


def _call(tracer: Any, name: str, fn: Any, *args: Any, **kwargs: Any) -> Any:
    """Call ``fn``, as a span of ``tracer`` when one is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics in reference seconds.

    Medians and quantiles over the run's passes, scaled by
    ``calibration.scale`` of the calibration samples taken after each
    pass, so runs made while the shared host is slower or faster compare
    like for like.  Raw values are printed too.
    """
    import calibration

    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        number = len(passes)
        passes.append(bench.run_pass(bench.workload.executor, f"pass{number}",
                                     seed=pass_seed(bench.seed, number),
                                     calibrate=True))
    samples = [s for run in passes for s in run.calibration]
    scale = calibration.scale(samples)

    # Passes 0 and 1 run the same plan; on the pool, a serial run of it is
    # the reference both must equal.
    if bench.workload.jobs > 1:
        reference = bench.run_pass(bench.serial, "reference").stream
    else:
        reference = passes[0].stream
    for number, run in enumerate(passes):
        repeat = number < 2 and run.stream is not reference
        bench.check(run, f"pass {number}", reference if repeat else None)
    bench.check_resume(str(bench.work / "pass0.checkpoint.jsonl"), reference)

    trials = [t for run in passes for t in run.trials]
    walls = [t.wall_time for t in trials]
    raw = {
        "setup_s": statistics.median(run.full_setup_s() for run in passes),
        "trials_per_s": statistics.median(
            len(run.trials) / run.wall_s for run in passes
        ),
        "trial_p50_s": statistics.median(walls),
        "trial_p90_s": statistics.quantiles(walls, n=10, method="inclusive")[-1],
        "trial_s": statistics.median(
            _phase(t, "simulate") + _phase(t, "check") for t in trials
        ),
        "events_per_s": statistics.median(
            t.events_executed / _phase(t, "simulate") for t in trials
        ),
    }
    print(f"passes: {len(passes)}, trials measured: {len(trials)}, "
          f"calibration median {statistics.median(samples):.4f}s of "
          f"{len(samples)} samples (scale {scale:.4f})")
    for name, value in raw.items():
        print(f"raw {name:32} {value!r:>24}")
    metrics = {
        name: value / scale if name.endswith("per_s") else value * scale
        for name, value in raw.items()
    }
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return metrics


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------


def _traced_run(bench: Bench, tracer: Any, tag: str,
                reference: bytes) -> tuple[Pass, float, float]:
    """One traced execution: stream, resume and reload the plan.

    Returns the pass with the resume and reload times.
    """
    from repro.api import load_document

    tracer.reset()
    run = bench.run_pass(bench.serial, tag, tracer)
    bench.check(run, tag, reference)
    resume_s = bench.check_resume(
        str(bench.work / f"{tag}.checkpoint.jsonl"), reference, tracer)
    start = time.perf_counter()
    tracer.call("engine.results.load", load_document,
                str(bench.work / f"{tag}.jsonl"))
    return run, resume_s, time.perf_counter() - start


def traced(bench: Bench) -> dict[str, float]:
    from tracer import TRIAL, Tracer

    untraced = bench.run_pass(bench.serial, "untraced")
    reference = untraced.stream
    bench.check(untraced, "untraced run")

    tracer = Tracer()
    tracer.install()
    try:
        run, resume_s, load_s = _traced_run(bench, tracer, "traced0", reference)
        calls, self_s = dict(tracer.calls), dict(tracer.self_s)
        sim_self, total_s = dict(tracer.sim_self_s), dict(tracer.total_s)
        peak = tracer.peak_live
        trace_path = OUT_DIR / f"trace-{bench.workload.name}-seed{bench.seed}.json"
        tracer.write_chrome_trace(str(trace_path))
        print(f"chrome trace: {trace_path.relative_to(ROOT)} "
              f"({len(tracer.spans)} spans)")
        _traced_run(bench, tracer, "traced1", reference)
    finally:
        tracer.uninstall()
    if calls != tracer.calls:
        drifted = sorted(k for k in set(calls) | set(tracer.calls)
                         if calls.get(k) != tracer.calls.get(k))
        bench.checks.fail(len(bench.plan), "wrapper call counts drifted "
                          f"between traced runs: {drifted}")

    # Pool figures come from an untraced pass on the workload's executor.
    pool = untraced
    if bench.workload.jobs > 1:
        pool = bench.run_pass(bench.workload.executor, "pool")
        bench.check(pool, "pool pass", reference)
    efficiency = sum(t.wall_time for t in pool.trials) / (
        bench.workload.jobs * pool.wall_s)

    traced_s = run.setup_s + run.wall_s + resume_s + load_s
    layer_self = sum(v for k, v in self_s.items() if k != TRIAL)
    simulate_s = total_s.get("sim.scheduler.run", 0.0)

    def own(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def sim_share(names: tuple[str, ...]) -> float:
        return sum(sim_self.get(n, 0.0) for n in names) / simulate_s

    metrics = {
        "sim.events.pushed": calls.get("sim.events.push", 0),
        "sim.events.popped": calls.get("sim.events.pop", 0),
        "sim.events.peak_live": peak,
        "sim.events.self_s": own("sim.events.push", "sim.events.pop",
                                 "sim.events.peek"),
        "sim.scheduler.run_s": own("sim.scheduler.run"),
        "sim.scheduler.deliver_calls": calls.get("sim.scheduler.deliver", 0),
        "sim.scheduler.deliver_s": own("sim.scheduler.deliver"),
        "sim.scheduler.churn_calls": calls.get("sim.scheduler.churn", 0),
        "sim.network.present_calls": calls.get("sim.network.present", 0),
        "sim.network.add_process_calls": calls.get("sim.network.add_process", 0),
        "sim.network.add_process_s": own("sim.network.add_process"),
        "sim.network.remove_process_calls":
            calls.get("sim.network.remove_process", 0),
        "sim.network.membership_s": own("sim.network.present",
                                        "sim.network.add_process",
                                        "sim.network.remove_process"),
        "sim.network.send_calls": calls.get("sim.network.send", 0),
        "sim.network.send_s": own("sim.network.send"),
        "topology.generate_s": own("topology.generate"),
        "topology.attach_calls": calls.get("topology.attach", 0),
        "protocols.on_message_calls": calls.get("protocols.on_message", 0),
        "protocols.on_message_s": own("protocols.on_message"),
        "protocols.on_neighbor_calls": calls.get("protocols.on_neighbor", 0),
        "obs.metrics_inc_calls": calls.get("obs.metrics_inc", 0),
        "obs.trace_record_calls": calls.get("obs.trace_record", 0),
        "obs.trace_record_s": own("obs.trace_record"),
        "core.run_from_trace_s": own("core.run_from_trace"),
        "core.check_query_s": own("core.check_query"),
        "engine.plan.build_s": own("engine.plan.build"),
        "engine.plan.to_config_s": own("engine.plan.to_config"),
        "engine.executor.chunks": pool.chunks,
        "engine.executor.pool_efficiency": efficiency,
        "engine.results.append_s": own("engine.results.append"),
        "engine.results.stream_bytes": len(run.stream),
        "engine.results.load_s": load_s,
        "engine.recovery.append_s": own("engine.recovery.append"),
        "engine.recovery.journal_bytes": run.journal_bytes,
        "engine.recovery.resume_s": resume_s,
        "trace.membership_share": sim_share(MEMBERSHIP_SPANS),
        "trace.transport_share": sim_share(TRANSPORT_SPANS),
        "trace.residual_s": traced_s - layer_self,
        "trace.overhead_ratio": (run.setup_s + run.wall_s)
        / (untraced.setup_s + untraced.wall_s),
    }
    _print_layers(calls, self_s, sim_self, simulate_s)
    return metrics


def _print_layers(calls: dict[str, int], self_s: dict[str, float],
                  sim_self: dict[str, float], simulate_s: float) -> None:
    """Every span's count, self time and share of simulate time."""
    print(f"{'span':32} {'calls':>9} {'self_s':>10} {'simulate share':>15}")
    for name in sorted(self_s, key=lambda n: -self_s[n]):
        share = sim_self.get(name, 0.0) / simulate_s if simulate_s else 0.0
        print(f"{name:32} {calls.get(name, 0):9d} {self_s[name]:10.4f} "
              f"{share:15.3f}")
    for name in sorted(set(calls) - set(self_s)):
        print(f"{name:32} {calls[name]:9d} {'(count only)':>10}")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    _bootstrap()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    declared = _declared()
    why = {w["name"]: w["why"] for w in declared["workloads"]}[workload.name]
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"platform={platform.platform()}")
    print(f"workload: {workload.name} seed={args.seed} jobs={workload.jobs} "
          f"trace={args.trace} — {why}")
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        bench = Bench(workload, args.seed, work)
        if args.trace:
            metrics = traced(bench)
        else:
            metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} "
                         f"are not both measured and declared in {section}")

    checks = bench.checks
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"error_ratio: {checks.failed / max(1, checks.attempted):.4f} "
          f"({checks.failed} of {checks.attempted} trials failed a check)")
    for name, value in metrics.items():
        print(f"{name:36} {value!r:>24} {units[name]}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


def _declared() -> dict[str, Any]:
    """The workloads and metrics declared in ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    raise SystemExit(main())
