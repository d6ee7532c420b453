"""Campaign work units: self-contained, picklable task descriptions.

A :class:`Task` captures everything a worker process needs to recompute
one result from scratch — benchmark name + trace parameters (or an
explicit trace), design key + parameters, and the full
:class:`GPUConfig` — so the campaign engine can ship it across a
``ProcessPoolExecutor`` boundary and key its persistent cache entry by
content (:meth:`Task.fingerprint`).

Task kinds:

``simulate``
    Full timing simulation; payload is a :class:`~repro.sim.simulator.RunResult`.
``replay``
    Timing-free cache replay; payload is a
    :class:`~repro.sim.replay.ReplayResult` (drives Fig. 2).
``pd-sweep``
    The SPDP-B offline protecting-distance sweep; payload is the best
    PD (``int``).  Defined here (rather than in ``repro.experiments``)
    so workers need no experiment-layer imports.

The access sequence never depends on the design, so consecutive tasks
on one workload can share its build: a :class:`WorkloadSlot` passed to
:func:`run_task` keeps the last workload's trace and design-independent
core arrays and hands them to the next task with the same
:meth:`Task.workload_identity`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.sim.config import GPUConfig
from repro.sim.designs import DesignSpec, make_design
# ``build_core_streams`` stays importable from here: perfbench's layer
# tracer patches this name.
from repro.sim.replay import build_core_streams, replay  # noqa: F401
from repro.sim.simulator import (
    FIDELITIES,
    _functional_stream_scheduler,
    _run_functional,
    simulate,
)
from repro.trace.trace import KernelTrace

from repro.runner.cache import config_fingerprint, stable_hash

__all__ = [
    "PD_SWEEP",
    "Task",
    "WorkloadSlot",
    "run_task",
    "run_task_armed",
    "sweep_optimal_pd",
    "trace_digest",
]

#: Candidate protecting distances for the SPDP-B offline sweep
#: (canonical definition; re-exported by ``repro.experiments.common``).
PD_SWEEP: Tuple[int, ...] = (4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 68, 96)

TASK_KINDS = ("simulate", "replay", "pd-sweep")


def sweep_optimal_pd(
    trace: KernelTrace,
    config: GPUConfig,
    candidates: Sequence[int] = PD_SWEEP,
    arrays=None,
) -> int:
    """Offline per-benchmark PD sweep (defines SPDP-B, as in the paper).

    Replays L1 only through the functional backend (counters
    bit-identical to the :func:`~repro.sim.replay.replay` oracle) and
    picks the PD with the lowest L1 miss rate; ties go to the smaller PD
    (cheaper hardware).  ``arrays`` are the trace's prebuilt L1-only
    core arrays (``prepare_core_arrays(..., include_l2=False)``); they
    are built here when not given.
    """
    from repro.sim.functional import functional_replay, prepare_core_arrays

    if arrays is None:
        arrays = prepare_core_arrays(trace, config, include_l2=False)
    best_pd = candidates[0]
    best_miss = float("inf")
    for pd in candidates:
        result = functional_replay(
            trace,
            config,
            make_design("spdp-b", pd=pd),
            arrays=arrays,
            include_l2=False,
        )
        miss = result.l1.miss_rate
        if miss < best_miss - 1e-9:
            best_miss = miss
            best_pd = pd
    return best_pd


def trace_digest(trace: KernelTrace) -> str:
    """Content digest of a kernel trace, for keying ad-hoc traces.

    Hashes the name, scratchpad footprint and the full instruction
    stream incrementally (``repr`` of plain ints/tuples is stable across
    processes and Python versions, unlike ``hash()``).
    """
    h = hashlib.sha256()
    h.update(repr((trace.name, trace.scratchpad_per_cta)).encode())
    for cta in trace.ctas:
        for warp in cta.warps:
            h.update(repr(warp).encode())
    return h.hexdigest()


@dataclass
class Task:
    """One unit of campaign work.

    Args:
        kind: ``"simulate"``, ``"replay"`` or ``"pd-sweep"``.
        benchmark: Table-1 benchmark name, rebuilt in the worker via
            :func:`repro.trace.suite.build_benchmark` from
            ``(benchmark, scale, seed)``.
        design: Design key (ignored by ``pd-sweep``).
        pd: Protecting distance for ``spdp-b`` tasks.
        scale: Trace scale factor.
        seed: Trace generation seed.
        config: Full architectural configuration (hashed field-by-field
            into the cache key, so any change invalidates).
        victim_share_factor: ``S_v`` for victim-bit sharing runs.
        pd_candidates: Sweep candidates for ``pd-sweep`` tasks.
        include_l2: Model the L2 in ``replay`` tasks.
        fidelity: ``"timing"`` (cycle-accurate, the default) or
            ``"functional"`` (fast vectorized replay with estimated
            cycles) for ``simulate`` tasks.  Part of the cache key, so
            the two fidelities never alias each other's results.
        trace: Optional pre-built trace.  With ``key_by_trace=False``
            this is only an execution shortcut (the cache key still uses
            benchmark/scale/seed); with ``key_by_trace=True`` the key
            uses a content digest of the trace instead — required for
            traces that did not come from the benchmark registry.
        trace_key: Precomputed :func:`trace_digest` (avoids rehashing a
            shared trace for every grid point).
        scenario: Declarative scenario spec document (a plain dict — it
            must cross the pickle boundary), built in the worker via
            :func:`repro.scenarios.build_scenario` with this task's
            ``scale``/``seed``.  The cache key is the content-addressed
            :func:`repro.scenarios.spec_digest` of the canonicalized
            spec, so editing any knob — or the schema defaults it
            inherits — invalidates exactly the affected entries.
    """

    kind: str
    benchmark: Optional[str] = None
    design: str = "bs"
    pd: Optional[int] = None
    scale: float = 1.0
    seed: int = 0
    config: GPUConfig = field(default_factory=GPUConfig)
    victim_share_factor: int = 1
    pd_candidates: Tuple[int, ...] = PD_SWEEP
    include_l2: bool = True
    trace: Optional[KernelTrace] = None
    key_by_trace: bool = False
    trace_key: Optional[str] = None
    fidelity: str = "timing"
    scenario: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; known: {TASK_KINDS}")
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {self.fidelity!r}; expected one of {FIDELITIES}"
            )
        if self.fidelity != "timing" and self.kind != "simulate":
            raise ValueError(
                f"fidelity={self.fidelity!r} only applies to simulate tasks, "
                f"not {self.kind!r}"
            )
        if self.benchmark is None and self.trace is None and self.scenario is None:
            raise ValueError(
                "task needs a benchmark name, a scenario spec or an explicit trace"
            )
        if self.benchmark is not None and self.scenario is not None:
            raise ValueError("benchmark and scenario are mutually exclusive")
        if self.key_by_trace and self.trace is None and self.trace_key is None:
            raise ValueError("key_by_trace requires a trace or a trace_key")
        if self.kind == "simulate" and self.design == "spdp-b" and self.pd is None:
            raise ValueError("spdp-b simulate tasks need pd=...")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable manifest label, e.g. ``simulate:SPMV/gc``.

        Non-default fidelities render inline
        (``simulate[functional]:SPMV/gc``) so manifests read correctly
        without consulting the per-task fidelity field.
        """
        name = self.benchmark
        if name is None and self.scenario is not None:
            name = self.scenario.get("name", "?")
        if name is None:
            name = self.trace.name if self.trace else "?"
        if self.kind == "pd-sweep":
            return f"pd-sweep:{name}"
        kind = self.kind
        if self.fidelity != "timing":
            kind = f"{kind}[{self.fidelity}]"
        return f"{kind}:{name}/{self.design}"

    def workload_identity(self) -> Dict[str, Any]:
        """The fingerprint entries that name this task's trace.

        Tasks with equal identities run on the same trace, whatever
        their kind, design or config, so :class:`WorkloadSlot` shares
        one build between them.  The cache key embeds exactly these
        entries, so the two can never disagree about a workload.
        """
        if self.key_by_trace:
            return {"trace": self.trace_key or trace_digest(self.trace)}
        if self.scenario is not None:
            from repro.scenarios import spec_digest

            # Content-addressed: the digest covers the canonical spec
            # with this task's scale/seed applied, so scale/seed need no
            # separate fingerprint entries.
            return {
                "scenario": spec_digest(
                    self.scenario, scale=self.scale, seed=self.seed
                )
            }
        return {"benchmark": self.benchmark, "scale": self.scale, "seed": self.seed}

    def fingerprint(self) -> Dict[str, Any]:
        """Everything that determines this task's result, as plain data."""
        fp: Dict[str, Any] = {
            "kind": self.kind,
            "config": config_fingerprint(self.config),
            **self.workload_identity(),
        }
        if self.kind == "pd-sweep":
            fp["pd_candidates"] = list(self.pd_candidates)
        else:
            fp["design"] = self.design
            fp["pd"] = self.pd
            fp["victim_share_factor"] = self.victim_share_factor
        if self.kind == "replay":
            fp["include_l2"] = self.include_l2
        if self.kind == "simulate":
            fp["fidelity"] = self.fidelity
        return fp

    def key(self, salt: str) -> str:
        """Stable cache key: SHA-256 over fingerprint + code salt."""
        return stable_hash({"salt": salt, **self.fingerprint()})

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_trace(self) -> KernelTrace:
        if self.trace is not None:
            return self.trace
        if self.scenario is not None:
            from repro.scenarios import build_scenario

            return build_scenario(self.scenario, scale=self.scale, seed=self.seed)
        from repro.trace.suite import build_benchmark

        return build_benchmark(self.benchmark, scale=self.scale, seed=self.seed)

    def build_design(self) -> DesignSpec:
        return make_design(self.design, pd=self.pd)


class WorkloadSlot:
    """One workload's build, shared by the consecutive tasks that run it.

    Holds a single workload's :class:`KernelTrace` and at most one set
    of its design-independent core arrays, keyed by ``(config,
    scheduler, include_l2)``.  A task with a different
    :meth:`Task.workload_identity` empties the slot *before* its own
    build, so the slot never holds more than one workload; callers get
    the most reuse by keeping their tasks workload-major.  Payloads are
    unchanged by sharing: the trace and arrays are read-only to every
    backend.

    A slot belongs to one serial batch (see
    :class:`~repro.runner.engine.CampaignEngine`) and is dropped when the
    batch returns, so no later batch, pass or service job ever starts
    warm; the batch empties it after a failed attempt so a retry
    recomputes from scratch.
    """

    __slots__ = ("identity", "trace", "arrays_key", "arrays")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Drop the held workload."""
        self.identity: Optional[Dict[str, Any]] = None
        self.trace: Optional[KernelTrace] = None
        self.arrays_key: Optional[Tuple[GPUConfig, str, bool]] = None
        self.arrays = None

    def trace_for(self, task: Task) -> KernelTrace:
        """``task``'s trace, built unless the slot already holds it."""
        identity = task.workload_identity()
        if self.trace is None or identity != self.identity:
            self.clear()
            self.trace = task.build_trace()
            self.identity = identity
        return self.trace

    def arrays_for(self, config: GPUConfig, scheduler: str, include_l2: bool):
        """Core arrays of the held trace, built unless already held."""
        from repro.sim.functional.engine import prepare_core_arrays

        key = (config, scheduler, include_l2)
        if self.arrays is None or key != self.arrays_key:
            self.arrays = None
            self.arrays = prepare_core_arrays(
                self.trace, config, scheduler, include_l2=include_l2
            )
            self.arrays_key = key
        return self.arrays


def run_task(task: Task, slot: Optional[WorkloadSlot] = None) -> Any:
    """Execute one task; the top-level worker entry point.

    Without ``slot`` the task builds its workload from scratch.  With
    one, it reuses the slot's trace and arrays when they belong to the
    same workload and leaves its own build there for the next task.
    """
    if slot is None:
        slot = WorkloadSlot()
    trace = slot.trace_for(task)
    config = task.config
    if task.kind == "simulate":
        if task.fidelity == "functional":
            arrays = slot.arrays_for(
                config, _functional_stream_scheduler(config), True
            )
            return _run_functional(
                [trace], config, task.build_design(),
                task.victim_share_factor, arrays=arrays,
            )
        return simulate(
            trace,
            config,
            task.build_design(),
            victim_share_factor=task.victim_share_factor,
        )
    if task.kind == "replay":
        return replay(
            trace, config, task.build_design(), include_l2=task.include_l2
        )
    return sweep_optimal_pd(
        trace, config, task.pd_candidates,
        arrays=slot.arrays_for(config, "lrr", False),
    )


def run_task_armed(
    task: Task,
    key: str,
    attempt: int,
    plan=None,
    slot: Optional[WorkloadSlot] = None,
) -> Tuple[Any, float]:
    """Worker entry point with fault injection threaded behind it.

    Returns ``(payload, wall_seconds)``, so per-task timing reflects
    worker-side compute, not queueing.  With ``plan`` ``None`` (the
    production path) the injector consultation is one attribute check.
    With a :class:`repro.faults.FaultPlan` armed, the planned fault for
    ``(key, attempt)`` fires *before* any real work, so a faulted
    attempt never wastes simulation time and a clean retry recomputes
    from scratch, keeping payloads bit-identical to fault-free runs.
    """
    import time

    if plan is not None:
        from repro.faults import inject

        inject(plan, key, attempt)
    t0 = time.perf_counter()
    payload = run_task(task, slot)
    return payload, time.perf_counter() - t0
