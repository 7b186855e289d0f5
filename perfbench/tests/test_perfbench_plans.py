"""Each workload's generated plan is a pure function of its seed."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import workloads  # noqa: E402

pytest.importorskip("repro")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_is_deterministic_for_a_seed(name):
    wl = workloads.WORKLOADS[name]
    first = workloads.plan_fingerprint(wl, 11)
    assert len(first) == wl.count
    assert workloads.plan_fingerprint(wl, 11) == first
    assert workloads.plan_fingerprint(wl, 12) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_jobs_follow_the_fingerprinted_plan(name):
    from repro.exec import plan_digest

    wl = workloads.WORKLOADS[name]
    jobs = workloads.plan_jobs(wl, 11, workloads.inputs(wl, 11))
    assert len(jobs) == wl.count
    again = workloads.plan_jobs(wl, 11, workloads.inputs(wl, 11))
    assert plan_digest(again) == plan_digest(jobs)


def test_detector_workloads_share_their_inputs():
    accel = workloads.WORKLOADS["fuzz_detectors"]
    pure = workloads.WORKLOADS["fuzz_detectors_pure"]
    assert (accel.core, pure.core, pure.cross_core) == ("accel", "pure",
                                                        "accel")
    assert workloads.plan_fingerprint(accel, 3) == workloads.plan_fingerprint(
        pure, 3
    )


def test_fuzz_round_is_run_fuzz_and_tracing_does_not_perturb_it():
    import dataclasses

    from repro.analysis.fuzz import run_fuzz

    from perfbench.child import _traced_round
    from perfbench.spans import NullTracer

    wl = dataclasses.replace(workloads.WORKLOADS["fuzz_faults"], count=24)
    given = workloads.inputs(wl, 5)
    plain = workloads.run_round(wl, 5, given, NullTracer())
    expected = run_fuzz(5, 24, workloads.fuzz_config(wl)).digest()
    assert plain.digest == expected
    traced, spans = _traced_round(wl, 5, given, None)
    assert traced.digest == expected
    names = {span.name for span in spans}
    assert {"analysis.fuzz.generate", "analysis.fuzz.build",
            "analysis.fuzz.judge", "sim.multiworld.step",
            "sim.world.history"} <= names
    assert traced.counts["core.history.modelled_events"] == (
        plain.counts["core.history.modelled_events"]
    )


def test_stratified_plan_fills_every_cell_equally():
    from collections import Counter

    from repro.analysis.fuzz import generate_scenario

    wl = workloads.WORKLOADS["fuzz_detectors"]
    config = workloads.fuzz_config(wl)
    given = workloads.inputs(wl, 2)
    assert given == sorted(set(given))
    cells = Counter(
        workloads._stratum(generate_scenario(2, i, config)) for i in given
    )
    assert len(cells) == workloads.STRATA
    assert set(cells.values()) == {wl.per_stratum}
