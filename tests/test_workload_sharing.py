"""One build per workload per serial batch, and why sharing it is safe.

A serial :class:`~repro.runner.CampaignEngine` batch hands each
workload's trace and core arrays from task to task through a
:class:`~repro.runner.task.WorkloadSlot`.  These tests pin how many
builds the real campaign entry points make, that a pool campaign still
builds per task, and the contract the sharing rests on: no backend ever
changes a column of a shared :class:`~repro.sim.functional.streams.CoreArrays`.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter

import numpy as np
import pytest

import repro.scenarios as scenarios
import repro.sim.functional.engine as functional_engine
import repro.trace.suite as trace_suite
from repro.experiments.common import PAPER_DESIGNS, EvalSuite
from repro.runner import CampaignEngine, Task
from repro.runner.task import WorkloadSlot
from repro.scenarios.sweep import generate_space, run_scenario_sweep
from repro.sim.config import GPUConfig
from repro.sim.designs import DESIGN_KEYS, make_design
from repro.sim.functional import FunctionalEngine, prepare_core_arrays

SCALE = 0.02


@pytest.fixture
def builds(monkeypatch):
    """Counts trace builds (benchmarks and scenarios) and stream sets."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(trace_suite, "build_benchmark",
                        counting("trace", trace_suite.build_benchmark))
    monkeypatch.setattr(scenarios, "build_scenario",
                        counting("trace", scenarios.build_scenario))
    monkeypatch.setattr(functional_engine, "build_core_streams",
                        counting("streams", functional_engine.build_core_streams))
    return counts


class TestBuildCounts:
    def test_scenario_sweep_builds_once_per_point(self, builds):
        points = generate_space()[:3]
        result = run_scenario_sweep(points, designs=("bs", "gc"), scale=SCALE)
        assert len(result.outcomes) == 3
        assert builds == {"trace": 3, "streams": 3}

    def test_run_matrix_builds_once_per_benchmark_per_wave(self, builds):
        benchmarks = ("FFT", "SD1")
        suite = EvalSuite(benchmarks=benchmarks, scale=SCALE, fidelity="functional")
        suite.run_matrix(PAPER_DESIGNS)
        # One build per benchmark in the PD wave, one in the grid wave.
        assert builds == {"trace": 4, "streams": 4}

    def test_workload_change_rebuilds(self, builds):
        tasks = [
            Task(kind="simulate", benchmark=b, design=d, scale=SCALE,
                 fidelity="functional")
            for b, designs in (("FFT", ("bs", "gc")), ("SD1", ("bs", "gc")),
                               ("FFT", ("dbp", "bs-s")))
            for d in designs
        ]
        CampaignEngine(jobs=1).run(tasks)
        # The slot holds one workload: returning to FFT builds it again.
        assert builds == {"trace": 3, "streams": 3}

    def test_slot_does_not_outlive_its_batch(self, builds):
        engine = CampaignEngine(jobs=1)
        for design in ("bs", "gc"):
            engine.run_one(Task(kind="simulate", benchmark="FFT", design=design,
                                scale=SCALE, fidelity="functional"))
        assert builds == {"trace": 2, "streams": 2}

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit the counting patch only by fork")
    def test_pool_campaign_builds_per_task(self, monkeypatch, tmp_path):
        log = tmp_path / "builds.log"
        original = trace_suite.build_benchmark

        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write("trace\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(trace_suite, "build_benchmark", logged)
        tasks = [
            Task(kind="simulate", benchmark="FFT", design=d, scale=SCALE,
                 fidelity="functional")
            for d in ("bs", "bs-s", "gc", "dbp")
        ]
        serial = CampaignEngine(jobs=1).run(tasks)
        assert log.read_text().count("trace") == 1
        log.unlink()
        pooled = CampaignEngine(jobs=2).run(tasks)
        assert log.read_text().count("trace") == len(tasks)
        assert [r.l1.snapshot() for r in pooled] == [r.l1.snapshot() for r in serial]


# ----------------------------------------------------------------------
# The contract sharing relies on
# ----------------------------------------------------------------------
def materialize(arrays, include_l2: bool) -> None:
    for A in arrays:
        A.ensure_probe()
        A.ensure_scalar_l1()
        A.ensure_times()
        if include_l2:
            A.ensure_scalar_l2()


def snapshot(arrays):
    """A deep copy of every materialized column of every core."""
    out = []
    for A in arrays:
        cols = {}
        for name in A.__slots__:
            value = getattr(A, name)
            if isinstance(value, np.ndarray):
                cols[name] = (value.dtype, value.copy())
            elif isinstance(value, list):
                cols[name] = list(value)
            elif value is not None and not name.startswith("_"):
                cols[name] = value
        out.append(cols)
    return out


def assert_same(before, after) -> None:
    assert len(before) == len(after)
    for core, (b, a) in enumerate(zip(before, after)):
        assert b.keys() == a.keys(), core
        for name, value in b.items():
            if isinstance(value, tuple):
                assert a[name][0] == value[0], (core, name)
                assert np.array_equal(a[name][1], value[1]), (core, name)
            else:
                assert a[name] == value, (core, name)


def replay_designs(trace, config, arrays, include_l2: bool):
    """Replay every design through ``arrays``; returns summed phase seconds."""
    phases: Counter = Counter()
    for key in DESIGN_KEYS:
        design = make_design(key, pd=8 if key == "spdp-b" else None)
        engine = FunctionalEngine(config, design, include_l2=include_l2,
                                  profile=True)
        engine.run(trace, arrays=arrays)
        phases.update(engine.phase_seconds)
    return phases


@pytest.mark.parametrize("include_l2", [True, False], ids=["l1+l2", "l1-only"])
def test_shared_arrays_are_read_only(include_l2):
    config = GPUConfig()
    # SSC has hit runs long enough for the walk and the miss heap to
    # escalate to NumPy probes.
    trace = trace_suite.build_benchmark("SSC", scale=SCALE, seed=0)
    arrays = prepare_core_arrays(trace, config, include_l2=include_l2)
    materialize(arrays, include_l2)
    before = snapshot(arrays)
    # bs/bs-s take the bursts, dbp and the PDP family the per-core walk,
    # gc/gc-m the miss heap when the L2 is modelled.
    phases = replay_designs(trace, config, arrays, include_l2)
    assert phases["burst"] > 0 and phases["probe"] > 0
    assert phases["scalar_event"] > 0
    assert_same(before, snapshot(arrays))


def test_slot_keys_arrays_by_config_scheduler_and_l2():
    slot = WorkloadSlot()
    task = Task(kind="simulate", benchmark="FFT", scale=SCALE)
    trace = slot.trace_for(task)
    assert slot.trace_for(Task(kind="pd-sweep", benchmark="FFT", scale=SCALE)) is trace
    config = GPUConfig()
    arrays = slot.arrays_for(config, "lrr", True)
    assert slot.arrays_for(GPUConfig(), "lrr", True) is arrays
    gto = slot.arrays_for(config, "gto", True)
    assert gto is not arrays
    l1_only = slot.arrays_for(config, "gto", False)
    assert l1_only is not gto
    assert slot.arrays_for(config.with_l1_size(16 * 1024), "gto", False) is not l1_only
    assert slot.trace_for(Task(kind="simulate", benchmark="FFT", scale=SCALE,
                               seed=1)) is not trace
    slot.clear()
    assert slot.trace is None and slot.arrays is None
