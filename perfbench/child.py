"""The workload process: a fresh interpreter per measurement.

``perfbench/run.py`` starts this module with the built copy's ``src`` on
``PYTHONPATH`` and ``REPRO_CORE`` set to the workload's core::

    python -m perfbench.child probe --workload W --seed S
    python -m perfbench.child run --workload W --seed S --seconds N \\
        --trace 0|1 --workdir DIR
    python -m perfbench.child check --workload W --seed S

* ``probe`` runs the plan's first job and reports the ``time.monotonic()``
  at which its result arrived (the set-up probe).
* ``run`` warms up on that first job, then executes the whole plan in
  rounds until ``--seconds`` have passed, checks every round, journals
  the plan and times resuming it. With ``--trace 1`` it alternates
  untraced and traced rounds, so tracing overhead is measured in the
  same process.
* ``check`` executes one traced round and reports its digest and counts,
  for a comparison across event cores.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from perfbench import workloads
from perfbench.spans import NullTracer, Tracer, patched, program_patches
from perfbench.spans import self_time_by_name

RESTORE_CALLS = 3  # at least this many resume calls after each round
RESTORE_SHARE = 0.1  # and for at least this share of the round's time


class CoreError(RuntimeError):
    """The program imported is not the built copy on the wanted core."""


def verify_core(core: str) -> None:
    """Refuse to measure anything but the built copy on ``core``."""
    try:
        import repro

        info = repro.core_info()
    except ImportError as exc:
        raise CoreError(f"cannot import the {core} core: {exc}") from exc
    if info["core"] != core:
        raise CoreError(f"wanted the {core} core, got {info}")
    src = Path(os.environ.get("PERFBENCH_SRC", "")).resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise CoreError(f"imported {repro.__file__}, not the copy in {src}")


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


class Checks:
    """Named correctness checks and the jobs each failure costs."""

    def __init__(self) -> None:
        self.results: list[dict] = []
        self.failed_jobs = 0

    def add(self, name: str, ok: bool, jobs: int, detail: str = "") -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed_jobs += jobs


def _counts_repeat(rounds, checks: Checks, what: str) -> None:
    keys = set.intersection(*(set(r.counts) for r in rounds))
    diverged = sorted(
        k for k in keys if len({r.counts[k] for r in rounds}) > 1
    )
    checks.add(
        f"counts repeat across {what}",
        not diverged,
        sum(r.jobs for r in rounds[1:]),
        ", ".join(diverged),
    )


def _rate(jobs_per_call: int, seconds: list[float]) -> float:
    return jobs_per_call * len(seconds) / sum(seconds)


def _restore_batch(wl, seed, given, journal, after, times, digests) -> None:
    """Time resuming the plan from its finished journal, a few times.

    Each batch lasts in proportion to the round before it (``after``
    seconds), so resuming is sampled across the run as evenly as the
    rounds are.
    """
    gc.collect()
    start = time.perf_counter()
    calls = 0
    while (
        calls < RESTORE_CALLS
        or time.perf_counter() - start < RESTORE_SHARE * after
    ):
        t0 = time.perf_counter()
        digests.add(workloads.restore(wl, seed, given, journal))
        times.append(time.perf_counter() - t0)
        calls += 1


def _traced_round(wl, seed, given, journal):
    tracer = Tracer()
    with patched(program_patches(tracer)):
        done = workloads.run_round(wl, seed, given, tracer, journal)
    spans, counts = tracer.take()
    done.counts.update(counts)
    return done, spans


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    journal = workdir / "journal.jsonl"
    round_journal = journal if wl.kind == "sweep" else None
    workloads.first_result(wl, seed)  # warm-up: imports, probes, first world
    given = workloads.inputs(wl, seed)

    plain, traced, span_sets = [], [], []
    restore_s: list[float] = []
    restore_digests: set[str] = set()
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(traced) < len(plain):
            done, spans = _traced_round(wl, seed, given, round_journal)
            traced.append(done)
            span_sets.append(spans)
        else:
            done = workloads.run_round(
                wl, seed, given, NullTracer(), round_journal
            )
            plain.append(done)
            if wl.kind == "fuzz" and len(plain) == 1:
                workloads.write_journal(wl, seed, given, journal,
                                        done.outcomes)
            # Resuming is timed after every untraced round, so it samples
            # the same stretch of machine time as the rounds do.
            _restore_batch(wl, seed, given, journal, done.seconds,
                           restore_s, restore_digests)
        # No round's results outlive it, so every round and the garbage
        # collector start from the same heap.
        done.outcomes = ()
        enough = (traced and plain) if trace else len(plain) >= 2
        if enough and time.perf_counter() >= deadline:
            break

    checks = Checks()
    rounds = plain + traced
    attempted = sum(r.jobs for r in rounds)
    reference = plain[0].digest
    checks.add(
        "digest repeats across rounds",
        all(r.digest == reference for r in plain),
        sum(r.jobs for r in plain if r.digest != reference),
    )
    if trace:
        checks.add(
            "traced digest equals untraced",
            all(r.digest == reference for r in traced),
            sum(r.jobs for r in traced if r.digest != reference),
        )
    findings = sum(r.failed for r in rounds)
    checks.add("zero findings", findings == 0, findings, f"{findings} jobs")
    _counts_repeat(rounds, checks, "rounds")
    if len(traced) > 1:
        _counts_repeat(traced, checks, "traced rounds")
    attempted += wl.count * len(restore_s)
    checks.add(
        "resumed digest equals dispatched",
        restore_digests == {reference},
        wl.count * len(restore_s) if restore_digests != {reference} else 0,
    )

    result: dict = {
        "rounds": len(plain),
        "round_s": [r.seconds for r in plain],
        # Rates are work over the whole measured time: the machine's
        # slow and fast stretches enter in proportion, where a median
        # of short samples would flip between them.
        "jobs_per_s": _rate(wl.count, [r.seconds for r in plain]),
        "restore_jobs_per_s": _rate(wl.count, restore_s),
        "restore_s": statistics.fmean(restore_s),
        "bytes_per_job": journal.stat().st_size / wl.count,
        "counts": dict(rounds[-1].counts),
        "digest": reference,
    }
    if wl.kind == "sweep":
        checks.add(
            "remote digest equals inproc",
            workloads.inproc_digest(wl, given) == reference,
            wl.count,
        )
        attempted += wl.count
        if trace:
            case_s, digest = workloads.serial_cases(wl, seed, given)
            attempted += wl.count
            checks.add("serial digest equals remote", digest == reference,
                       wl.count)
            result["case_s"] = case_s
    if trace:
        result["traced_rounds"] = len(traced)
        result["traced_jobs_per_s"] = _rate(
            wl.count, [r.seconds for r in traced]
        )
        result["layers"] = _layer_summary(span_sets)
        if wl.kind == "sweep":
            result["first_result_s"] = statistics.median(
                r.first_result_s for r in traced
            )
            result["dispatch_s"] = statistics.median(
                r.dispatch_s for r in traced
            )
    result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    # The workload process's only children are the remote workers.
    result["worker_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    result["attempted"] = attempted
    result["failed"] = min(attempted, checks.failed_jobs)
    result["checks"] = checks.results
    return result


def _layer_summary(span_sets) -> dict:
    """Per layer: median self seconds and median share of the round."""
    per_round = []
    for spans in span_sets:
        own = self_time_by_name(spans)
        total = sum(
            s.end - s.start for s in spans if s.name == "perfbench.round"
        )
        per_round.append((own, total))
    names = sorted({name for own, _ in per_round for name in own})
    return {
        name: {
            "self_s": statistics.median(own.get(name, 0.0)
                                        for own, _ in per_round),
            "share": statistics.median(
                100.0 * own.get(name, 0.0) / total for own, total in per_round
            ),
        }
        for name in names
    }


def check_round(wl, seed: int) -> dict:
    done, _ = _traced_round(wl, seed, workloads.inputs(wl, seed), None)
    return {
        "digest": done.digest,
        "counts": done.counts,
        "attempted": done.jobs,
        "failed": done.failed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("probe", "run", "check"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument("--core", default=None,
                        help="event core to verify (default: the workload's)")
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    try:
        verify_core(args.core or wl.core)
        if args.mode == "probe":
            out = {"first": workloads.first_result(wl, args.seed)}
        elif args.mode == "check":
            out = check_round(wl, args.seed)
        else:
            out = measure(
                wl, args.seed, args.seconds, bool(args.trace), args.workdir
            )
    except Exception as exc:  # the boundary: report, never hide
        traceback.print_exc()
        out = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
