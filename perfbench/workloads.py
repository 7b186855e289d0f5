"""The benchmark's workloads: what each one runs, why, and one round of it.

Every workload is generated from the seed the benchmark is given, and the
program receives only the generated inputs (:func:`inputs`): a fuzz
workload runs scenarios ``scenario_job(seed, index, config)`` of fuzz run
``seed``, and the sweep derives its case seeds from it. A workload has a
fixed size (``count`` jobs per round), so a round of one seed is the same
work on every commit.

Detector scenarios differ in cost by an order of magnitude (cluster
size, heartbeat interval, phi-accrual against plain heartbeats), so the
first ``count`` indices of two seeds can differ widely in cost. The
detector workloads therefore take a *stratified* slice of
the seed's stream: scanning indices in order, they keep the first
``per_stratum`` scenarios of every (detector kind, n band, heartbeat
interval band) cell. Every seed then runs the same mix, and a seed
changes which scenarios run, not how expensive the plan is.

The load comes from one process: the benchmark's own, which calls the
program's public API in a closed loop, one round after another.

``BENCHMARK.json`` gates two of the workloads, ``fuzz_faults`` and
``sweep_remote``, which between them reach every layer the traced run
names. The detector pair stays runnable by name to price the compiled
core against the pure one; it is not gated, so that the gated runs can
be long enough to be steady on a small shared machine.

This module imports nothing from ``repro`` at import time, so
``perfbench/run.py`` can read the definitions before the program is built.
"""

from __future__ import annotations

import bisect
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

DEFAULT_SEED = 0
"""The seed to develop and tune against."""

CONFIRM_SEED = 7919
"""Reserved: a claimed gain is confirmed on this seed too, because it
was not looked at while the change was written."""

FUZZ_STEPPING = {"stepping": "round_robin", "quantum": 512, "window": 64}
"""``run_fuzz``'s own default runner, built here so its stats are read."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``why`` says what the workload is for; ``heavy`` and ``light`` name
    the layers it loads most and least, so a change to one layer has a
    workload that exercises it and one that should not move.
    """

    name: str
    core: str  # the REPRO_CORE it runs under
    kind: str  # "fuzz" or "sweep"
    count: int  # jobs per round
    why: str
    heavy: str
    light: str
    fuzz_config: tuple[tuple[str, Any], ...] = ()
    experiment: str = ""
    params: tuple[tuple[str, Any], ...] = ()
    workers: int = 0  # spawned remote workers
    cross_core: str | None = None  # core its digest is checked against
    per_stratum: int = 0  # >0: stratified detector slice (see above)


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="fuzz_faults",
            core="accel",
            kind="fuzz",
            count=1024,
            fuzz_config=(("detector_rate", 0.0),),
            cross_core="pure",
            why=(
                "many small injected-fault worlds (n 3-12, ~17 modelled "
                "events each): the fuzz pipeline around the event core"
            ),
            heavy=(
                "analysis.fuzz generate/build/judge, sim.world.history, "
                "analysis.coverage fold, digest (about half the time)"
            ),
            light="the event core (sim.multiworld.step) is a minority",
        ),
        Workload(
            name="fuzz_detectors",
            core="accel",
            kind="fuzz",
            count=64,
            per_stratum=2,
            fuzz_config=(
                ("detector_rate", 1.0),
                ("min_n", 12),
                ("max_n", 24),
                ("detector_horizon", 60.0),
            ),
            why=(
                "few long-lived worlds under heartbeat/phi-accrual "
                "traffic (~14k engine events, ~90 modelled events each)"
            ),
            heavy=(
                "sim.multiworld.step: event core, detectors, delivery "
                "(over 90% of the time)"
            ),
            light="generation, world build and the judge (under 5%)",
        ),
        Workload(
            name="fuzz_detectors_pure",
            core="pure",
            kind="fuzz",
            count=64,
            per_stratum=2,
            fuzz_config=(
                ("detector_rate", 1.0),
                ("min_n", 12),
                ("max_n", 24),
                ("detector_horizon", 60.0),
            ),
            cross_core="accel",
            why=(
                "fuzz_detectors' inputs on the pure-Python reference core: "
                "with fuzz_detectors it prices the compiled core"
            ),
            heavy=(
                "sim.scheduler, sim.network and sim.delays in Python "
                "(over 55% of self time)"
            ),
            light="generation, world build and the judge",
        ),
        Workload(
            name="sweep_remote",
            core="accel",
            kind="sweep",
            count=1024,
            experiment="e7",
            params=(("n", 6),),
            workers=2,
            why=(
                "an e7 sweep dispatched to 2 spawned remote workers with "
                "a journal, then resumed from the finished journal"
            ),
            heavy=(
                "exec.remote (spawn, handshake, frames, detector), "
                "exec.journal writes and reads, analysis.experiments"
            ),
            light="no fuzz generator, judge or coverage",
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs and plans
# ----------------------------------------------------------------------

N_BANDS = (15, 18, 21)  # n 12-14 | 15-17 | 18-20 | 21-24
INTERVAL_BANDS = (0.875, 1.25, 1.625)  # heartbeat interval in [0.5, 2.0]
STRATA = 2 * (len(N_BANDS) + 1) * (len(INTERVAL_BANDS) + 1)
MAX_SCAN = 100_000


def fuzz_config(wl: Workload):
    from repro.analysis.fuzz import FuzzConfig

    return FuzzConfig(**dict(wl.fuzz_config))


def _stratum(scenario) -> tuple[str, int, int]:
    kind, params = scenario.detector
    return (
        kind,
        bisect.bisect_right(N_BANDS, scenario.n),
        bisect.bisect_right(INTERVAL_BANDS, params[0]),
    )


def inputs(wl: Workload, seed: int) -> list[int]:
    """What the benchmark hands the program for ``seed``: scenario
    indices of fuzz run ``seed``, or the sweep's case seeds."""
    if wl.kind == "sweep":
        rng = random.Random(f"perfbench:{wl.name}:{seed}")
        return [rng.getrandbits(31) for _ in range(wl.count)]
    if not wl.per_stratum:
        return list(range(wl.count))
    from repro.analysis.fuzz import generate_scenario

    if wl.count != wl.per_stratum * STRATA:
        raise ValueError(f"{wl.name}: count must be {STRATA} x per_stratum")
    config = fuzz_config(wl)
    taken: Counter = Counter()
    picked = []
    for index in range(MAX_SCAN):
        cell = _stratum(generate_scenario(seed, index, config))
        if taken[cell] < wl.per_stratum:
            taken[cell] += 1
            picked.append(index)
            if len(picked) == wl.count:
                return picked
    raise ValueError(f"{wl.name}: strata not filled in {MAX_SCAN} scenarios")


def plan_jobs(wl: Workload, seed: int, given: list[int]) -> list:
    """The ordered job plan a round hands to the execution layer.

    A sweep's plan depends on its case seeds alone; ``seed`` is the fuzz
    run the scenario indices belong to.
    """
    if wl.kind == "fuzz":
        from repro.analysis.fuzz import scenario_job

        config = fuzz_config(wl)
        return [scenario_job(seed, index, config) for index in given]
    from repro.analysis import sweep

    cases = sweep.plan_cases(wl.experiment, given, params=dict(wl.params))
    return [sweep.case_to_job(case) for case in cases]


def plan_fingerprint(wl: Workload, seed: int) -> list[str]:
    """The generated inputs as text: scenario reprs, or the case list."""
    given = inputs(wl, seed)
    if wl.kind == "fuzz":
        from repro.analysis.fuzz import generate_scenario

        config = fuzz_config(wl)
        return [repr(generate_scenario(seed, i, config)) for i in given]
    from repro.analysis.sweep import plan_cases

    return [
        repr(case)
        for case in plan_cases(wl.experiment, given, params=dict(wl.params))
    ]


def _inproc_executor():
    from repro.exec import InprocExecutor
    from repro.sim.multiworld import ShardedRunner

    return InprocExecutor(runner=ShardedRunner(**FUZZ_STEPPING))


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------


@dataclass
class Round:
    """What one execution of the plan produced."""

    digest: str
    jobs: int
    failed: int  # jobs that yielded a finding
    counts: dict[str, int]
    seconds: float = 0.0
    first_result_s: float | None = None
    dispatch_s: float | None = None
    outcomes: tuple = ()


def run_round(wl, seed: int, given: list[int], tracer, journal=None) -> Round:
    """Execute the plan once, the way a user runs it, and check it."""
    start = time.perf_counter()
    with tracer.span("perfbench.round"):
        if wl.kind == "fuzz":
            result = _fuzz_round(wl, seed, given, tracer)
        else:
            result = _sweep_round(wl, seed, given, tracer, journal)
    result.seconds = time.perf_counter() - start
    return result


def _fuzz_round(wl: Workload, seed: int, given, tracer) -> Round:
    """``run_fuzz``'s own body over the given indices: plan the jobs,
    run them on its default in-process runner, fold coverage, digest.
    With indices ``0..count-1`` this is ``run_fuzz(seed, count, config)``
    exactly, digest included."""
    from repro import exec as rexec
    from repro.analysis import coverage, fuzz

    executor = _inproc_executor()
    with tracer.span("exec.core.run_jobs"):
        outcomes = rexec.run_jobs(
            plan_jobs(wl, seed, given), executor=executor
        )
    report = fuzz.FuzzReport(
        seed=seed, count=len(outcomes), outcomes=tuple(outcomes)
    )
    with tracer.span("analysis.coverage.fold"):
        cover = coverage.CoverageMap.from_outcomes(report.outcomes)
    with tracer.span("analysis.fuzz.digest"):
        digest = report.digest()
    stats = executor.runner.stats
    return Round(
        digest=digest,
        jobs=len(outcomes),
        failed=sum(1 for outcome in outcomes if not outcome.ok),
        counts={
            "sim.multiworld.engine_events": stats.events,
            "sim.multiworld.entries_reused": stats.entries_reused,
            "sim.multiworld.entries_recycled": stats.entries_recycled,
            "sim.multiworld.peak_live_shards": stats.peak_live_shards,
            "core.history.modelled_events": report.events,
            "analysis.coverage.features": len(cover),
        },
        outcomes=report.outcomes,
    )


def _sweep_round(wl: Workload, seed: int, given, tracer, journal) -> Round:
    """``run_sweep(experiment, seeds, params, backend="remote")``'s own
    body, journaled, with the first streamed result timed."""
    from repro import exec as rexec
    from repro.analysis import sweep

    with tracer.span("analysis.sweep.plan"):
        jobs = plan_jobs(wl, seed, given)
    executor = rexec.make_executor("remote", remote_workers=wl.workers)
    first: list[float] = []

    def on_emit(index, job, rows) -> None:
        if not first:
            first.append(time.perf_counter())

    start = time.perf_counter()
    with tracer.span("exec.remote.dispatch"):
        per_case = rexec.run_jobs(
            jobs,
            executor=executor,
            sink=rexec.CallbackSink(on_emit),
            journal=journal,
        )
    dispatch_s = time.perf_counter() - start
    rows = [row for case_rows in per_case for row in case_rows]
    stats = executor.stats
    return Round(
        digest=sweep.rows_digest(rows),
        jobs=len(jobs),
        failed=0,
        counts={
            "exec.remote.spawned": stats.spawned,
            "exec.remote.results": stats.results,
            "exec.remote.duplicates": stats.duplicates,
            "exec.remote.reassigned": stats.reassigned,
            "exec.remote.failed_workers": len(stats.failed),
        },
        first_result_s=first[0] - start if first else None,
        dispatch_s=dispatch_s,
    )


def first_result(wl: Workload, seed: int) -> float:
    """From nothing to the plan's first job result, the way a round gets
    there; returns the ``time.monotonic()`` at which it arrived."""
    from repro import exec as rexec

    jobs = plan_jobs(wl, seed, inputs(wl, seed)[:1])
    if wl.kind == "fuzz":
        executor = _inproc_executor()
    else:
        executor = rexec.make_executor("remote", remote_workers=wl.workers)
    arrived: list[float] = []
    rexec.run_jobs(
        jobs,
        executor=executor,
        sink=rexec.CallbackSink(
            lambda index, job, result: arrived.append(time.monotonic())
        ),
    )
    return arrived[0]


# ----------------------------------------------------------------------
# Journal, restore, and the reference runs the checks compare against
# ----------------------------------------------------------------------


def write_journal(wl, seed: int, given, path: Path, outcomes) -> None:
    """Journal a finished fuzz round through the journal's own API.

    The lines are the ones ``run_jobs(journal=path)`` writes, without
    running the plan again. Sweep rounds journal as they run.
    """
    from repro.exec import Journal

    with Journal(path) as log:
        jobs = plan_jobs(wl, seed, given)
        log.begin(jobs)
        for index, (job, outcome) in enumerate(zip(jobs, outcomes)):
            log.record(index, job, outcome)


def restore(wl: Workload, seed: int, given, path: Path) -> str:
    """Resume the plan from its finished journal; return the digest."""
    from repro import exec as rexec

    if wl.kind == "fuzz":
        from repro.analysis import fuzz

        outcomes = rexec.run_jobs(
            plan_jobs(wl, seed, given),
            executor=_inproc_executor(),
            journal=path,
            resume=True,
        )
        return fuzz.FuzzReport(
            seed=seed, count=len(outcomes), outcomes=tuple(outcomes)
        ).digest()
    from repro.analysis import sweep

    rows = sweep.run_sweep(
        wl.experiment,
        given,
        params=dict(wl.params),
        backend="remote",
        remote_workers=wl.workers,
        journal=path,
        resume=True,
    )
    return sweep.rows_digest(rows)


def inproc_digest(wl: Workload, given) -> str:
    """The sweep plan run on the in-process backend (the reference)."""
    from repro.analysis import sweep

    rows = sweep.run_sweep(
        wl.experiment, given, params=dict(wl.params), backend="inproc"
    )
    return sweep.rows_digest(rows)


def serial_cases(wl: Workload, seed: int, given) -> tuple[float, str]:
    """The sweep's jobs through ``run_job`` in this process, one by one:
    the useful work a remote fleet does. Returns (seconds, digest)."""
    from repro.analysis import sweep
    from repro.exec import run_job

    jobs = plan_jobs(wl, seed, given)
    start = time.perf_counter()
    per_case = [run_job(job) for job in jobs]
    seconds = time.perf_counter() - start
    rows = [row for case_rows in per_case for row in case_rows]
    return seconds, sweep.rows_digest(rows)
