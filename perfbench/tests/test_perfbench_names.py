"""BENCHMARK.json agrees with the benchmark, and every name is legal."""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_metric_and_workload_names_use_only_legal_characters():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names), names
    metric_names = names[len(SPEC["workloads"]):]
    assert len(set(metric_names)) == len(metric_names)
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT.match(unit) for unit in units), units


def test_workloads_match_their_definitions():
    gated = [workloads.WORKLOADS[w["name"]] for w in SPEC["workloads"]]
    assert len({wl.name for wl in gated}) == len(gated) >= 2
    for wl in workloads.WORKLOADS.values():
        assert wl.why and wl.heavy and wl.light
        assert wl.core in ("accel", "pure")
    assert workloads.DEFAULT_SEED != workloads.CONFIRM_SEED
    # The gated runs check both event cores and reach the sweep layers.
    cores = {wl.core for wl in gated} | {wl.cross_core for wl in gated}
    assert {"accel", "pure"} <= cores
    assert {wl.kind for wl in gated} == {"fuzz", "sweep"}


def test_bounds_follow_the_contract():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def _fake_result():
    layer = {"self_s": 0.5, "share": 10.0}
    return {
        "jobs_per_s": 10.0,
        "traced_jobs_per_s": 9.0,
        "restore_jobs_per_s": 100.0,
        "restore_s": 0.1,
        "bytes_per_job": 500.0,
        "setup_s": 0.4,
        "peak_rss_mb": 60.0,
        "worker_peak_rss_mb": 40.0,
        "layers": {name: layer for name in run.TIMED_LAYERS},
        "counts": {},
    }


def test_reported_metrics_are_exactly_the_spec_lists():
    result = _fake_result()
    wl = workloads.WORKLOADS["sweep_remote"]
    assert set(run.end_to_end(result)) == {
        m["name"] for m in SPEC["end_to_end"]
    }
    assert set(run.per_layer(wl, result)) == {
        m["name"] for m in SPEC["per_layer"]
    }
