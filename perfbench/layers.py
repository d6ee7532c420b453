"""The traced run: spans around calls into each layer's public functions.

Nothing under ``src/`` changes.  :class:`Tracer` replaces each layer
entry point, where its callers look it up, with a wrapper that records
a span (thread-local stack, so the daemon's job threads trace too).  A
span's self time is its duration minus the spans it encloses.  The
wrappers come off again when the traced pass ends, so untraced passes in
the same process run the original code.

Timing-engine component shares come from a separate profiler pass: no
public boundary separates the core, caches, memory system, NoC and DRAM,
so those shares are self time by source package under ``cProfile``.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.experiments.common as experiments_common
import repro.runner.task as runner_task
import repro.scenarios as scenarios
import repro.sim.functional as functional
import repro.sim.functional.engine as functional_engine
import repro.trace.suite as trace_suite
from repro.runner import CampaignEngine, CampaignJournal, ResultCache
from repro.sim.functional import FunctionalEngine, TimingEstimator

#: Timing-engine components, as source paths under ``repro/``.
COMPONENTS = (
    ("gpu", ("repro/gpu/",)),
    ("cache", ("repro/cache/",)),
    ("gcache", ("repro/core/",)),
    ("memsys", ("repro/sim/memory_system.py",)),
    ("noc", ("repro/noc/",)),
    ("dram", ("repro/dram/",)),
)


def _instructions(trace: Any) -> Dict[str, int]:
    return {"trace.instructions": trace.instruction_count()}


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        self.profiler: Optional[cProfile.Profile] = None
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    # -- spans ------------------------------------------------------------
    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: Any, fn: Callable,
             counts: Optional[Callable[[Any], Dict[str, float]]] = None) -> Callable:
        """Wrap ``fn``; ``name`` may be a callable of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            stack = self._stack()
            stack.append(0.0)
            profile = self.profiler if label == "timing.run" else None
            t0 = time.perf_counter()
            if profile is not None:
                profile.enable()
            try:
                result = fn(*args, **kwargs)
            finally:
                if profile is not None:
                    profile.disable()
                duration = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    self.self_s[label] += duration - child
                    self.total_s[label] += duration
                    self.calls[label] += 1
            if counts is not None:
                # Counting is the tracer's own work: keep it out of the
                # enclosing layer's self time.
                t1 = time.perf_counter()
                extra = counts(result)
                cost = time.perf_counter() - t1
                if stack:
                    stack[-1] += cost
                with self._lock:
                    self.self_s["bench.tracer"] += cost
                    for key, value in extra.items():
                        self.counts[key] += value
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        tracer = self

        def simulate_label(*args: Any, fidelity: str = "timing", **kwargs: Any) -> str:
            return "timing.run" if fidelity == "timing" else "functional.simulate"

        class ProfiledEngine(FunctionalEngine):
            """The functional engine with its burst/probe/scalar split on."""

            def __init__(self, *args: Any, **kwargs: Any) -> None:
                kwargs["profile"] = True
                super().__init__(*args, **kwargs)

            def run(self, *args: Any, **kwargs: Any) -> None:
                before = dict(self.phase_seconds)
                try:
                    super().run(*args, **kwargs)
                finally:
                    with tracer._lock:
                        for phase, seconds in self.phase_seconds.items():
                            tracer.counts[f"functional.phase.{phase}"] += (
                                seconds - before[phase])

        build = functools.partial(self.span, "trace.build", counts=_instructions)
        streams = functools.partial(self.span, "replay.streams")
        table = [
            (trace_suite, "build_benchmark", build),
            (experiments_common, "build_benchmark", build),
            (scenarios, "build_scenario", build),
            (functional_engine, "build_core_streams", streams),
            (runner_task, "build_core_streams", streams),
            (functional_engine, "build_core_arrays",
             functools.partial(self.span, "functional.arrays")),
            (runner_task, "sweep_optimal_pd",
             functools.partial(self.span, "runner.pd_sweep")),
            (runner_task, "replay", functools.partial(self.span, "replay.oracle")),
            (runner_task, "simulate", functools.partial(self.span, simulate_label)),
            (FunctionalEngine, "run", functools.partial(self.span, "functional.engine")),
            (TimingEstimator, "estimate",
             functools.partial(self.span, "functional.estimator")),
            (TimingEstimator, "estimate_load_latency",
             functools.partial(self.span, "functional.estimator")),
            (ResultCache, "get", functools.partial(self.span, "runner.cache_get")),
            (ResultCache, "put", functools.partial(self.span, "runner.cache_put")),
            (CampaignJournal, "append",
             functools.partial(self.span, "runner.journal_append")),
            (CampaignEngine, "write_manifest",
             functools.partial(self.span, "runner.manifest_write")),
            (CampaignEngine, "run", functools.partial(self.span, "runner.engine")),
        ]
        for owner, attr, wrap in table:
            self._patch(owner, attr, wrap(owner.__dict__[attr]))
        self._patch(functional, "FunctionalEngine", ProfiledEngine)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- component shares ---------------------------------------------------
    def component_shares(self) -> Dict[str, float]:
        """Self-time share of each timing component in the profiled calls."""
        shares = {f"timing.{name}_share": 0.0 for name, _ in COMPONENTS}
        if self.profiler is None:
            return shares
        try:
            stats = pstats.Stats(self.profiler)
        except TypeError:  # nothing was profiled
            return shares
        total = 0.0
        by_component: Dict[str, float] = defaultdict(float)
        for (path, _, _), row in stats.stats.items():
            tottime = row[2]
            total += tottime
            path = path.replace("\\", "/")
            for name, prefixes in COMPONENTS:
                if any(p in path for p in prefixes):
                    by_component[name] += tottime
                    break
        if total:
            for name, _ in COMPONENTS:
                shares[f"timing.{name}_share"] = by_component[name] / total
        return shares


def layer_metrics(tracer: Tracer, pass_result: Any) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    s, n, c = tracer.self_s, tracer.calls, tracer.counts
    results = pass_result.results.values()
    sims = [r for r in results if "instructions" in r]
    timing = [r for r in sims if "cycles" in r]
    functional_sims = [r for r in sims if "cycles" not in r]

    def total(rows: List[Dict[str, Any]], key: str) -> int:
        return sum(r[key] for r in rows)

    def per_access(seconds: float, rows: List[Dict[str, Any]]) -> float:
        accesses = total(rows, "l1.accesses")
        return seconds / accesses * 1e6 if accesses else 0.0

    counters = pass_result.counters
    wall = pass_result.wall
    out = {
        "trace.build_s": s["trace.build"],
        "trace.builds": n["trace.build"],
        "trace.instructions": c["trace.instructions"],
        "replay.streams_s": s["replay.streams"],
        "replay.streams_calls": n["replay.streams"],
        "functional.arrays_s": s["functional.arrays"],
        "runner.pd_sweep_s": s["runner.pd_sweep"],
        "runner.pd_sweeps": n["runner.pd_sweep"],
        "replay.oracle_s": s["replay.oracle"],
        "replay.oracle_calls": n["replay.oracle"],
        "functional.engine_s": s["functional.engine"],
        "functional.burst_s": c["functional.phase.burst"],
        "functional.probe_s": c["functional.phase.probe"],
        "functional.scalar_s": c["functional.phase.scalar_event"],
        "functional.us_per_l1_access": per_access(s["functional.engine"], functional_sims),
        "functional.estimator_s": s["functional.estimator"],
        "timing.run_s": s["timing.run"],
        "timing.us_per_l1_access": per_access(s["timing.run"], timing),
        "sim.instructions": total(sims, "instructions"),
        "sim.l1_accesses": total(sims, "l1.accesses"),
        "sim.l1_misses": total(sims, "l1.accesses") - total(sims, "l1.hits"),
        "sim.l1_bypasses": total(sims, "l1.bypasses"),
        "sim.l2_misses": total(sims, "l2.accesses") - total(sims, "l2.hits"),
        "sim.dram_requests": total(sims, "dram_requests"),
        "sim.cycles": total(timing, "cycles"),
        "runner.tasks": counters["tasks"],
        "runner.executed": counters["executed"],
        "runner.cache_hits": counters["cache_hits"],
        "runner.coalesced": counters["coalesced"],
        "runner.retries": counters["retries"],
        "runner.failed": counters["failed"],
        "runner.cache_get_s": s["runner.cache_get"],
        "runner.cache_put_s": s["runner.cache_put"],
        "runner.journal_append_s": s["runner.journal_append"],
        "runner.manifest_write_s": s["runner.manifest_write"],
        "runner.dispatch_s": tracer.total_s["runner.engine"] - pass_result.task_seconds,
        "service.submit_s": counters.get("submit_s", 0.0),
        "service.queue_wait_s": counters.get("queue_wait_s", 0.0),
        "service.coalesce_ratio": (counters.get("coalesced_total", 0) / counters["tasks"]
                                   if counters["tasks"] else 0.0),
        "bench.traced_pass_s": wall,
        "bench.unattributed_s": wall - sum(s.values()),
    }
    out["bench.self_times"] = dict(s)
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_overhead")):
        return "share"
    if name.endswith("us_per_l1_access"):
        return "us"
    return "count"


#: Every per-layer metric the traced run reports, with its unit.
UNITS = {name: _unit(name) for name in (
    "trace.build_s", "trace.builds", "trace.instructions",
    "replay.streams_s", "replay.streams_calls", "functional.arrays_s",
    "runner.pd_sweep_s", "runner.pd_sweeps", "replay.oracle_s", "replay.oracle_calls",
    "functional.engine_s", "functional.burst_s", "functional.probe_s",
    "functional.scalar_s", "functional.us_per_l1_access", "functional.estimator_s",
    "timing.run_s", "timing.us_per_l1_access",
    *(f"timing.{name}_share" for name, _ in COMPONENTS),
    "sim.instructions", "sim.l1_accesses", "sim.l1_misses", "sim.l1_bypasses",
    "sim.l2_misses", "sim.dram_requests", "sim.cycles",
    "runner.tasks", "runner.executed", "runner.cache_hits", "runner.coalesced",
    "runner.retries", "runner.failed",
    "runner.cache_get_s", "runner.cache_put_s", "runner.journal_append_s",
    "runner.manifest_write_s", "runner.dispatch_s",
    "service.submit_s", "service.queue_wait_s", "service.coalesce_ratio",
    "bench.traced_pass_s", "bench.unattributed_s", "bench.traced_campaign_s",
    "bench.untraced_campaign_s", "bench.trace_overhead",
)}
