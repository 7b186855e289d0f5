"""Spans recorded from outside the program, and their self-time arithmetic.

Nothing under ``src/`` is instrumented. A traced run wraps the public
functions the benchmark reaches — module-level functions and class
methods, replaced on their owner for the duration of a round and put
back afterwards — so every span sits on a layer boundary the program
already exposes.

A span has a name (the module that owns the call, plus the call), a
start, an end, a parent (the span that was open when it started) and the
plan index of the job it belongs to, when it belongs to one. Spans are
kept in memory and summarised when the run ends. A layer's *self time*
is its span's duration minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence


@dataclass
class Span:
    """One call across a layer boundary."""

    name: str
    start: float
    end: float
    parent: int | None = None  # index of the enclosing span, if any
    job: int | None = None  # plan index of the job it serves, if any


def covered_length(
    intervals: Sequence[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus what its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start)
        - covered_length(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


class Tracer:
    """Records spans in memory and counts taken at the same boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def _open(self, name: str, job: int | None) -> int:
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = self.spans[parent].job
        self.spans.append(Span(name, self.clock(), 0.0, parent, job))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, job: int | None = None) -> Iterator[None]:
        index = self._open(name, job)
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        fn: Callable,
        name: str,
        job_of: Callable[[tuple], int | None] | None = None,
        before: Callable[[tuple], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``job_of(args)`` names the job the call serves (else it inherits
        the enclosing span's); ``before(args)`` runs ahead of the span,
        so counts it reads are not billed to the layer.
        """

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = self._open(name, job_of(args) if job_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    def take(self) -> tuple[list[Span], Counter[str]]:
        """Hand over and forget everything recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


class NullTracer:
    """The untraced stand-in: spans cost one shared no-op context."""

    def span(self, name: str, job: int | None = None):
        return nullcontext()


@contextmanager
def patched(patches: Sequence[tuple[object, str, Callable]]) -> Iterator[None]:
    """Replace ``owner.attr`` with each wrapper; restore them on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _count_world(counts: Counter[str], world) -> None:
    """Counts read from a finished world before it is judged and disposed."""
    net = world.network
    sent = net.sent_by_kind
    counts["sim.network.sent.app"] += sent["app"]
    counts["sim.network.sent.protocol"] += sent["protocol"]
    counts["sim.network.sent.system"] += sent["system"]
    counts["sim.network.delivered"] += net.messages_delivered
    counts["sim.network.bursts_reused"] += net.bursts_reused
    counts["core.history.modelled_events"] += len(world.trace)


def program_patches(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """Wrappers for the public calls the workloads make into ``repro``.

    ``generate_scenario``, ``build_scenario_world`` (the shard's build)
    and ``judge_world`` (the shard's collect) are looked up as module
    globals by the fuzz planner at call time, so replacing them on the
    module reaches every job; ``ShardedRunner.run``, ``World.history``
    and ``Journal.record`` are replaced on their classes.
    """
    from repro.analysis import fuzz
    from repro.exec.journal import Journal
    from repro.sim.multiworld import ShardedRunner
    from repro.sim.world import World

    def wrap(owner, attr, name, job_of=None, before=None):
        return (
            owner,
            attr,
            tracer.wrap(vars(owner)[attr], name, job_of, before),
        )

    return [
        wrap(fuzz, "generate_scenario", "analysis.fuzz.generate",
             job_of=lambda a: a[1]),
        wrap(fuzz, "build_scenario_world", "analysis.fuzz.build",
             job_of=lambda a: a[0].index),
        wrap(fuzz, "judge_world", "analysis.fuzz.judge",
             job_of=lambda a: a[0].index,
             before=lambda a: _count_world(tracer.counts, a[1])),
        wrap(ShardedRunner, "run", "sim.multiworld.step"),
        wrap(World, "history", "sim.world.history"),
        wrap(Journal, "record", "exec.journal.record",
             job_of=lambda a: a[1]),
    ]
