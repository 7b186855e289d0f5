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

The loop itself is :class:`Collector`. :func:`run_jobs` drives it over
a whole plan in one batch; an adaptive fuzz campaign
(:func:`~repro.analysis.fuzz.run_adaptive_fuzz`), whose jobs unfold
batch by batch, drives the same collector once per batch.

Sweep rows, fuzz outcomes, and monitored runs are all just payloads here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import SimulationError
from repro.exec.executors import Executor, SerialExecutor
from repro.exec.job import JobSpec
from repro.exec.journal import Journal
from repro.exec.sink import ResultSink

_UNSET = object()


class Collector:
    """Ordered collection of a ``total``-job run, one batch at a time.

    A context manager: entering opens the sink for ``total`` results,
    leaving closes it (on any exit path, paired with a *successful*
    open). Each :meth:`run` takes one batch of ``(index, job)`` pairs
    plus whatever of it the journal already holds, hands the rest to the
    executor, records every completed result to ``log``, and streams
    results to the sink in planned order as the finished prefix grows —
    across batch boundaries, since the emit cursor spans the whole run.
    """

    def __init__(
        self,
        total: int,
        executor: Executor,
        sink: ResultSink | None = None,
        log: Journal | None = None,
    ):
        self.total = total
        self.executor = executor
        self.sink = sink
        self.log = log
        self._results: list[Any] = [_UNSET] * total
        self._jobs: list[JobSpec | None] = [None] * total
        self._cursor = 0

    def __enter__(self) -> "Collector":
        if self.sink is not None:
            self.sink.open(self.total)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.sink is not None:
            self.sink.close()

    def run(
        self,
        batch: Sequence[tuple[int, JobSpec]],
        restored: Mapping[int, Any],
    ) -> list[Any]:
        """Run one batch; return its results in batch order.

        ``restored`` maps batch indices to results taken from a journal;
        those jobs are not re-run (nor re-recorded).
        """
        for index, job in batch:
            self._jobs[index] = job
        for index, result in restored.items():
            self._results[index] = result
        self._release_prefix()  # journaled results are already available
        self.executor.submit(
            [(i, job) for i, job in batch if i not in restored],
            self._on_result,
        )
        missing = [i for i, _ in batch if self._results[i] is _UNSET]
        if missing:
            raise SimulationError(
                f"executor {self.executor.name!r} completed without "
                f"reporting {len(missing)} job(s) (first: {missing[0]})"
            )
        return [self._results[i] for i, _ in batch]

    def _on_result(self, index: int, result: Any) -> None:
        self._results[index] = result
        if self.log is not None:
            self.log.record(index, self._jobs[index], result)
        self._release_prefix()

    def _release_prefix(self) -> None:
        if self.sink is None:
            return
        results, cursor = self._results, self._cursor
        while cursor < self.total and results[cursor] is not _UNSET:
            self.sink.emit(cursor, self._jobs[cursor], results[cursor])
            cursor += 1
            self._cursor = cursor


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

    # The try owns the journal handle from the moment begin() opens it:
    # a sink whose open() raises, a job exception, or a sink error
    # mid-run must all still close an owned journal (the flushed lines
    # it already holds are a valid resumable checkpoint either way).
    try:
        cached = log.begin(jobs, resume=resume) if log is not None else {}
        with Collector(len(jobs), executor, sink, log) as collector:
            return collector.run(list(enumerate(jobs)), cached)
    finally:
        if log is not None and owned:
            log.close()
