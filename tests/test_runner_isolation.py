"""Property test: worker/task isolation in the campaign engine.

Shuffling task submission order must never change any per-benchmark
result — this catches hidden shared mutable state (module-level RNG,
counters or caches leaking between tasks), the classic way a "parallel
speedup" silently changes reproduced numbers.  Each task is executed
from a self-contained description in fresh policy/trace state, so any
order (and any interleaving across processes) must yield bit-identical
counters.

A serial batch shares each workload's trace and core arrays between its
consecutive tasks, so the same holds between a batch and its tasks run
one by one: sharing a build must never change a payload.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runner import CampaignEngine, Task
from repro.scenarios.sweep import generate_space
from repro.sim.designs import DESIGN_KEYS

SCALE = 0.05
SEED = 0

#: The slice whose orderings we permute: stateful designs included (gc
#: carries victim-bit/bypass-switch state; pdp-3 carries PD counters).
GRID = [
    ("SPMV", "bs"),
    ("SPMV", "gc"),
    ("BFS", "gc"),
    ("BFS", "pdp-3"),
    ("SD1", "bs"),
    ("SD1", "gc"),
]


def make_task(benchmark: str, design: str) -> Task:
    return Task(
        kind="simulate", benchmark=benchmark, design=design, scale=SCALE, seed=SEED
    )


def signature(result):
    return (
        result.benchmark,
        result.design,
        result.cycles,
        result.instructions,
        tuple(sorted(result.l1.snapshot().items())),
        tuple(sorted(result.l2.snapshot().items())),
        result.avg_load_latency,
        result.dram_requests,
        result.dram_row_hit_rate,
    )


_baseline_memo = {}


def baseline():
    """Reference signatures from one serial run in grid order."""
    if not _baseline_memo:
        engine = CampaignEngine(jobs=1, cache=None)
        results = engine.run([make_task(b, d) for b, d in GRID])
        for (b, d), result in zip(GRID, results):
            _baseline_memo[(b, d)] = signature(result)
    return _baseline_memo


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(order=st.permutations(list(range(len(GRID)))))
def test_submission_order_never_changes_results(order):
    expected = baseline()
    engine = CampaignEngine(jobs=1, cache=None)
    shuffled = [GRID[i] for i in order]
    results = engine.run([make_task(b, d) for b, d in shuffled])
    for point, result in zip(shuffled, results):
        assert signature(result) == expected[point], (point, order)


def test_parallel_workers_match_shuffled_serial():
    """Worker processes see tasks in arbitrary order and interleaving;
    their results must still match the serial baseline point-for-point."""
    expected = baseline()
    engine = CampaignEngine(jobs=3, cache=None)
    shuffled = list(reversed(GRID))
    results = engine.run([make_task(b, d) for b, d in shuffled])
    for point, result in zip(shuffled, results):
        assert signature(result) == expected[point], point


def test_repeated_runs_in_one_process_are_stable():
    """Back-to-back campaigns in one interpreter must agree — catches
    state leaking *between* engine.run() batches."""
    expected = baseline()
    engine = CampaignEngine(jobs=1, cache=None)
    again = engine.run([make_task(b, d) for b, d in GRID])
    for point, result in zip(GRID, again):
        assert signature(result) == expected[point], point


# ----------------------------------------------------------------------
# Batch sharing equals isolation
# ----------------------------------------------------------------------
#: Two benchmarks and one scenario point, all cheap at the trace floor;
#: SPMV and the scenario bypass, so G-Cache's hint path is exercised.
SHARED_BENCHMARKS = ("FFT", "SPMV")
SHARED_SCENARIO = generate_space()[84]
SHARED_SCALE = 0.02


def workload_tasks(workload):
    """Every design at both fidelities, plus a PD sweep and a replay.

    The PD sweep reads the L1-only arrays, the functional simulations
    the L2 ones, so one workload's tasks switch array sets in the slot.
    """
    if workload == "scenario":
        fields = {"scenario": SHARED_SCENARIO, "scale": SHARED_SCALE}
    else:
        fields = {"benchmark": workload, "scale": SHARED_SCALE}

    def simulations(fidelity):
        return [
            Task(kind="simulate", design=design, fidelity=fidelity,
                 pd=8 if design == "spdp-b" else None, **fields)
            for design in DESIGN_KEYS
        ]

    functional = simulations("functional")
    half = len(functional) // 2
    return [
        *simulations("timing"),
        *functional[:half],
        Task(kind="pd-sweep", pd_candidates=(4, 8, 16), **fields),
        *functional[half:],
        Task(kind="replay", design="gc", **fields),
    ]


@pytest.fixture(scope="module")
def shared_batch():
    """(tasks, payload bytes) of one workload-major serial batch."""
    tasks = [t for w in (*SHARED_BENCHMARKS, "scenario") for t in workload_tasks(w)]
    payloads = CampaignEngine(jobs=1, cache=None).run(tasks)
    return tasks, [pickle.dumps(p) for p in payloads]


class TestBatchEqualsIsolation:
    def test_every_task_alone_matches_its_batch_payload(self, shared_batch):
        tasks, batch = shared_batch
        for task, expected in zip(tasks, batch):
            alone = CampaignEngine(jobs=1, cache=None).run_one(task)
            assert pickle.dumps(alone) == expected, task.label

    def test_shuffled_batch_matches(self, shared_batch):
        tasks, batch = shared_batch
        order = list(range(len(tasks)))
        random.Random(7).shuffle(order)
        payloads = CampaignEngine(jobs=1, cache=None).run(
            [tasks[i] for i in order])
        for i, payload in zip(order, payloads):
            assert pickle.dumps(payload) == batch[i], tasks[i].label
