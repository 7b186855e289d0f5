"""The repository benchmark: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload fuzz_faults --seed 0 --seconds 20
    python3 perfbench/run.py --workload sweep_remote --trace 1
    python3 perfbench/run.py                      # every workload in turn

It builds the compiled core in a copy of the sources under
``.bench_build/`` (never in the checkout), then measures in fresh
interpreters started on that copy:

* five set-up probes, each from interpreter start to the first job's
  result; ``setup_s`` is their median;
* one workload process that runs the plan in rounds for ``--seconds``,
  checks every round and times resuming the plan from its journal;
* for a workload with a cross-core twin, one round on the other core,
  whose digest and counts must equal this core's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. It exits non-zero without that line only when there
is no program to build.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import builder, workloads  # noqa: E402

BUILDS = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s

TIMED_LAYERS = (
    "perfbench.round",
    "exec.core.run_jobs",
    "analysis.fuzz.generate",
    "analysis.fuzz.build",
    "sim.multiworld.step",
    "sim.world.history",
    "analysis.fuzz.judge",
    "analysis.coverage.fold",
    "analysis.fuzz.digest",
    "analysis.sweep.plan",
    "exec.remote.dispatch",
    "exec.journal.record",
)
"""Span names whose self time and share of the round are reported."""

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class ChildError(RuntimeError):
    """A workload process failed, timed out or printed no result."""


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Run ``python -m perfbench.child ARGS``; return its JSON result.

    The child gets its own process group, so a timeout takes down its
    remote workers with it; every process is waited for.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{args[0]} timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{args[0]} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if "error" in result:
        raise ChildError(f"{args[0]}: {result['error']}")
    return result


def child_env(build: builder.Build, core: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(
        PYTHONPATH=str(build.src),
        PERFBENCH_SRC=str(build.src),
        REPRO_CORE=core,
    )
    return env


def measure_workload(
    wl: workloads.Workload,
    build: builder.Build,
    seed: int,
    seconds: float,
    trace: bool,
) -> dict:
    """Every measurement and check of one workload; raises ChildError."""
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env(build, wl.core)
    common = ["--workload", wl.name, "--seed", str(seed)]

    setup = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        probe = run_child(["probe", *common], env, deadline)
        setup.append(probe["first"] - started)

    workdir = BUILDS / f"run-{os.getpid()}-{wl.name}"
    try:
        result = run_child(
            [
                "run", *common,
                "--seconds", str(seconds),
                "--trace", str(int(trace)),
                "--workdir", str(workdir),
            ],
            env,
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = statistics.median(setup)

    if wl.cross_core:
        other = run_child(
            ["check", *common, "--core", wl.cross_core],
            child_env(build, wl.cross_core),
            deadline,
        )
        # Both cores share the model, so every count they both took,
        # the storage-pool counters included, must agree.
        shared = sorted(set(other["counts"]) & set(result["counts"]))
        diverged = [
            k for k in shared if other["counts"][k] != result["counts"][k]
        ]
        same = other["digest"] == result["digest"] and not diverged
        result["checks"].append({
            "name": f"digest and counts equal on {wl.cross_core} core",
            "ok": same,
            "detail": ", ".join(diverged),
        })
        result["attempted"] += other["attempted"]
        result["failed"] += other["failed"] + (0 if same else wl.count)
    return result


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "jobs_per_s": result["jobs_per_s"],
        "restore_jobs_per_s": result["restore_jobs_per_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(wl: workloads.Workload, result: dict) -> dict[str, float]:
    """The traced run's layer metrics; 0 for a layer the workload skips."""
    layers = result["layers"]
    values: dict[str, float] = {}
    for name in TIMED_LAYERS:
        layer = layers.get(name, {"self_s": 0.0, "share": 0.0})
        values[f"{name}_s"] = layer["self_s"]
        values[f"{name}.share"] = layer["share"]
    counts = result["counts"]
    for key in (
        "sim.multiworld.engine_events",
        "core.history.modelled_events",
        "sim.multiworld.entries_reused",
        "sim.multiworld.entries_recycled",
        "sim.multiworld.peak_live_shards",
        "sim.network.sent.app",
        "sim.network.sent.protocol",
        "sim.network.sent.system",
        "sim.network.delivered",
        "sim.network.bursts_reused",
        "analysis.coverage.features",
        "exec.remote.spawned",
        "exec.remote.results",
        "exec.remote.duplicates",
        "exec.remote.reassigned",
    ):
        values[key] = counts.get(key, 0)
    engine = counts.get("sim.multiworld.engine_events", 0)
    modelled = counts.get("core.history.modelled_events", 0)
    values["sim.multiworld.engine_events_per_modelled_event"] = (
        engine / modelled if modelled else 0.0
    )
    values["sim.multiworld.entry_reuse_ratio"] = (
        counts.get("sim.multiworld.entries_reused", 0) / engine
        if engine else 0.0
    )
    dispatch_s = result.get("dispatch_s", 0.0)
    case_s = result.get("case_s", 0.0)
    values["exec.remote.first_result_s"] = result.get("first_result_s", 0.0)
    values["analysis.sweep.case_s"] = case_s
    values["exec.remote.efficiency"] = (
        case_s / (wl.workers * dispatch_s) if dispatch_s else 0.0
    )
    values["exec.remote.worker_peak_rss_mb"] = result["worker_peak_rss_mb"]
    values["exec.journal.restore_s"] = result["restore_s"]
    values["exec.journal.bytes_per_job"] = result["bytes_per_job"]
    untraced = result["jobs_per_s"]
    traced = result["traced_jobs_per_s"]
    values["perfbench.trace.jobs_per_s"] = traced
    values["perfbench.trace.untraced_jobs_per_s"] = untraced
    values["perfbench.trace.overhead"] = 100.0 * (1.0 - traced / untraced)
    values["perfbench.jobs_per_round"] = wl.count
    return values


def report(wl, result, trace: bool, spec: dict) -> dict:
    """Print one workload's metrics and checks; return its metrics."""
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(wl, result) if trace else end_to_end(result)
    metrics = {
        row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
        for row in rows
    }
    print(f"== {wl.name} (core {wl.core}, {wl.count} jobs per round)")
    if trace:
        print(f"   {'layer':<34} {'self s/round':>12} {'share %':>8}")
        for name in TIMED_LAYERS:
            if values[f"{name}_s"]:
                print(f"   {name:<34} {values[f'{name}_s']:>12.5f} "
                      f"{values[f'{name}.share']:>8.2f}")
    tabled = {f"{name}_s" for name in TIMED_LAYERS}
    tabled |= {f"{name}.share" for name in TIMED_LAYERS}
    for name, metric in metrics.items():
        if name not in tabled:
            print(f"   {name:<48} {metric['value']:>14.4f} {metric['unit']}")
    print(f"   attempted {result['attempted']}  failed {result['failed']}")
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"   [{mark}] {check['name']}{detail}")
    return metrics


def failed_result(wl, trace: bool, spec: dict, why: str) -> dict:
    """Every job of the workload counted as failed; no metric measured."""
    print(f"== {wl.name}: FAILED: {why}", file=sys.stderr)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": False,
        "attempted": wl.count,
        "failed": wl.count,
        "metrics": {
            row["name"]: {"value": 0.0, "unit": row["unit"]} for row in rows
        },
    }


def run_workload(wl, build, args, spec) -> dict:
    if wl.core == "accel" and not build.accel:
        return failed_result(
            wl, args.trace, spec,
            f"the compiled core did not build (see {build.root}/build.log)",
        )
    try:
        result = measure_workload(
            wl, build, args.seed, args.seconds, bool(args.trace)
        )
    except ChildError as exc:
        return failed_result(wl, args.trace, spec, str(exc))
    metrics = report(wl, result, bool(args.trace), spec)
    return {
        "correct": result["failed"] == 0
        and all(check["ok"] for check in result["checks"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", default="all",
        choices=["all", *workloads.WORKLOADS],
    )
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        build = builder.ensure_build(ROOT, BUILDS)
    except (OSError, builder.BuildError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    names = (
        list(workloads.WORKLOADS) if args.workload == "all"
        else [args.workload]
    )
    results = {
        name: run_workload(workloads.WORKLOADS[name], build, args, spec)
        for name in names
    }
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
