"""The execution core: plan in, deterministic ordered results out.

:func:`run_jobs` is the one fan-out loop in the repository. It takes an
ordered plan of :class:`~repro.exec.job.JobSpec` jobs and an executor,
and owns everything the three former per-subsystem loops each reimplemented:

* **checkpointing** — with a journal, every completed result is recorded
  as it lands; with ``resume``, journaled results are restored instead of
  re-executed, and the final list is bit-identical to an uninterrupted
  run's (pure jobs + exact restoration; see :mod:`repro.exec.journal`);
* **order laundering** — executors report completions in whatever order
  their engine produces them; the core buffers and releases the longest
  finished prefix, so sinks always observe planned order
  (:mod:`repro.exec.sink`);
* **collection** — the return value is the full result list in planned
  order, whatever backend ran it.

Sweep rows, fuzz outcomes, and monitored runs are all just payloads here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.errors import SimulationError
from repro.exec.executors import Executor, SerialExecutor
from repro.exec.job import JobSpec
from repro.exec.journal import Journal
from repro.exec.sink import ResultSink

_UNSET = object()


def run_jobs(
    jobs: Sequence[JobSpec],
    executor: Executor | None = None,
    sink: ResultSink | None = None,
    journal: Journal | str | Path | None = None,
    resume: bool = False,
) -> list[Any]:
    """Execute a plan; return its results in planned order.

    Args:
        jobs: the ordered plan. Order is part of the plan's identity —
            it is the result order, the sink's emission order, and the
            journal's plan digest.
        executor: engine to run on (default: :class:`SerialExecutor`).
        sink: optional streaming consumer; receives every result in
            planned order as the finished prefix grows, including
            results restored from a resumed journal.
        journal: optional checkpoint file (path or
            :class:`~repro.exec.journal.Journal`). Every completed job is
            recorded as it finishes.
        resume: restore journaled results instead of re-running their
            jobs. Requires ``journal``; the journal must match the plan.
    """
    if resume and journal is None:
        raise SimulationError("resume=True requires a journal")
    executor = executor if executor is not None else SerialExecutor()
    owned = isinstance(journal, (str, Path))
    log = Journal(journal) if owned else journal

    # The outer try owns the journal handle from the moment begin()
    # opens it: a sink whose open() raises, a job exception, or a sink
    # error mid-run must all still close an owned journal (the flushed
    # lines it already holds are a valid resumable checkpoint either
    # way).
    cached: dict[int, Any] = {}
    try:
        if log is not None:
            cached = log.begin(jobs, resume=resume)
        pending = [(i, job) for i, job in enumerate(jobs) if i not in cached]

        results: list[Any] = [_UNSET] * len(jobs)
        for index, result in cached.items():
            results[index] = result

        # The emit cursor: results stream to the sink in planned order,
        # each released the moment it and everything before it is
        # available.
        cursor = 0

        def release_prefix() -> None:
            nonlocal cursor
            if sink is None:
                return
            while cursor < len(jobs) and results[cursor] is not _UNSET:
                sink.emit(cursor, jobs[cursor], results[cursor])
                cursor += 1

        def on_result(index: int, result: Any) -> None:
            results[index] = result
            if log is not None:
                log.record(index, jobs[index], result)
            release_prefix()

        if sink is not None:
            # close() pairs with a *successful* open, so the inner try
            # starts only after it.
            sink.open(len(jobs))
        try:
            release_prefix()  # journaled results are already available
            executor.submit(pending, on_result)
        finally:
            if sink is not None:
                sink.close()
    finally:
        if log is not None and owned:
            log.close()

    missing = [i for i, result in enumerate(results) if result is _UNSET]
    if missing:
        raise SimulationError(
            f"executor {executor.name!r} completed without reporting "
            f"{len(missing)} job(s) (first: {missing[0]})"
        )
    return results
