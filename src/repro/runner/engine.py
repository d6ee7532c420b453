"""The campaign engine: fault-tolerant parallel execution behind the cache.

:class:`CampaignEngine` is the one place the repository fans simulation
work out over processes.  Given a batch of :class:`~repro.runner.task.Task`
objects it

1. computes each task's stable cache key, consults the campaign journal
   (``resume=True``) and probes the persistent
   :class:`~repro.runner.cache.ResultCache` (when one is attached),
2. deduplicates the remaining misses by key and executes them — serially
   for ``jobs=1`` (also the fallback for single-task batches, where a
   pool would only add fork latency), or on a ``ProcessPoolExecutor``
   otherwise,
3. survives partial failure: every attempt is covered by a bounded
   retry budget with exponential backoff, pool runs enforce a per-task
   ``task_timeout`` by killing and rebuilding the pool, and a worker
   crash (``BrokenProcessPool``) likewise rebuilds the pool and retries
   the interrupted tasks,
4. writes results back to the cache atomically, appends each completed
   key to the crash-safe :class:`~repro.runner.journal.CampaignJournal`,
   and records per-task wall times, attempts and hit/miss/retry
   counters (:class:`~repro.stats.campaign.CampaignCounters`),

and returns payloads aligned with the submitted batch.  Every task
builds fresh policy and cache state from its description.  Pool workers
also rebuild the trace per task; the serial path builds each workload
once per batch instead, in a :class:`~repro.runner.task.WorkloadSlot`
that hands the trace and its design-independent core arrays to the next
task on the same workload, is emptied whenever the workload changes or
an attempt fails, and is dropped when the batch returns.  Traces and
arrays are read-only to every backend, so results are bit-identical
regardless of ``jobs``, submission order, batch composition, or how
many faults were recovered along the way — the property the
determinism, isolation and chaos test layers lock in.

Failure semantics
-----------------

A task *failure* is any exception from an attempt, an engine-enforced
timeout, or a pool break while the task was in flight (crashes cannot
be attributed to one future, so every in-flight task is charged — the
honest accounting, and still bounded).  A task whose failures exceed
``retries`` raises :class:`CampaignTaskError` carrying the task label,
key and full attempt history; with ``keep_going=True`` the error is
recorded, the payload slot gets the :data:`FAILED` sentinel, and the
rest of the campaign completes.  ``KeyboardInterrupt`` is never
retried: the journal is already flushed per task, a partial manifest
marked ``"interrupted": true`` is written (when ``manifest_path`` is
set), and the interrupt propagates.

Fault injection (:class:`repro.faults.FaultPlan`) threads through the
same worker entry point (:func:`repro.runner.task.run_task_armed`), so
every one of these recovery paths is deterministic, testable code.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.faults import FaultPlan, corrupt_file
from repro.runner.cache import MISS, ResultCache, default_salt
from repro.runner.coalesce import InflightEntry, InflightRegistry
from repro.runner.journal import CampaignJournal
from repro.runner.task import Task, WorkloadSlot, run_task_armed
from repro.stats.campaign import CampaignCounters, TaskTiming

__all__ = [
    "FAILED",
    "MANIFEST_SCHEMA_VERSION",
    "CampaignCancelled",
    "CampaignEngine",
    "CampaignTaskError",
    "EngineControl",
    "git_commit",
    "run_campaign",
]

#: How often (seconds) the pool loop wakes to check deadlines/backoffs.
_POLL_TICK = 0.05

#: Campaign-manifest schema version.  Bump on any change to the manifest
#: layout that ``repro.analysis`` consumers would need to branch on.
#: Version history: 1 = pre-analysis manifests (no version field);
#: 2 = adds ``schema_version``, ``git_commit`` and structured per-task
#: ``kind``/``benchmark``/``design`` fields.
MANIFEST_SCHEMA_VERSION = 2

_GIT_COMMIT_CACHE: List[Optional[str]] = []


def git_commit() -> Optional[str]:
    """Git commit hash of the source tree, or ``None`` outside a repo.

    Resolved once per process (manifests are written repeatedly) from
    the directory holding this file, so an installed-but-not-cloned
    tree, a missing ``git`` binary, or any git failure all degrade to
    ``None`` rather than an error — manifests must write anywhere.
    """
    if not _GIT_COMMIT_CACHE:
        commit: Optional[str] = None
        try:
            import subprocess

            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip() or None
        except Exception:
            commit = None
        _GIT_COMMIT_CACHE.append(commit)
    return _GIT_COMMIT_CACHE[0]


class _FailedSentinel:
    """Payload slot for a task that exhausted its retries (keep_going)."""

    def __repr__(self) -> str:
        return "<FAILED>"


#: Sentinel payload returned for exhausted tasks under ``keep_going``.
FAILED = _FailedSentinel()


class CampaignTaskError(RuntimeError):
    """A task failed more than ``retries`` times; carries the evidence.

    Attributes:
        label: Human-readable task label (``simulate:SPMV/gc``).
        key: The task's cache key.
        history: One record per failed attempt:
            ``{"attempt": n, "kind": ..., "error": ..., "seconds": ...}``.
    """

    def __init__(self, label: str, key: str, history: List[Dict[str, Any]]) -> None:
        self.label = label
        self.key = key
        self.history = list(history)
        detail = "; ".join(
            f"attempt {h['attempt']}: [{h['kind']}] {h['error']}" for h in history
        )
        super().__init__(
            f"campaign task {label!r} (key {key[:12]}…) failed after "
            f"{len(history)} attempt(s): {detail}"
        )


class CampaignCancelled(RuntimeError):
    """The engine's :class:`EngineControl` was cancelled mid-campaign.

    Completed tasks stay cached and journaled; the batch's remaining
    tasks never execute.  Raised out of :meth:`CampaignEngine.run`.
    """


class EngineControl:
    """Thread-safe pause/resume/cancel switchboard for a running engine.

    Built for the service daemon (one control per job, poked from the
    asyncio front end while the engine runs in a worker thread), but
    usable by any harness that drives an engine from another thread.
    Pause takes effect at task boundaries: in-flight attempts finish,
    no new attempt starts until :meth:`resume`.  Cancel unwinds the
    engine with :class:`CampaignCancelled` (a paused engine wakes up to
    be cancelled).
    """

    def __init__(self) -> None:
        self._resume = threading.Event()
        self._resume.set()
        self._cancel = threading.Event()

    def pause(self) -> None:
        self._resume.clear()

    def resume(self) -> None:
        self._resume.set()

    def cancel(self) -> None:
        self._cancel.set()
        self._resume.set()  # wake anyone parked in checkpoint()

    @property
    def paused(self) -> bool:
        return not self._resume.is_set() and not self._cancel.is_set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def checkpoint(self, timeout: Optional[float] = None) -> None:
        """Block while paused; raise :class:`CampaignCancelled` on cancel.

        With ``timeout`` the wait is bounded (the pool loop polls so it
        can keep reaping in-flight futures while paused).
        """
        if self._cancel.is_set():
            raise CampaignCancelled("campaign cancelled")
        self._resume.wait(timeout)
        if self._cancel.is_set():
            raise CampaignCancelled("campaign cancelled")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("paused" if self.paused else "running")
        return f"<EngineControl {state}>"


class _PoolReset(Exception):
    """Internal: unwind the pool loop to kill and rebuild the pool."""


class _TaskState:
    """Mutable per-unique-task execution state within one ``run`` batch."""

    __slots__ = ("task", "key", "history", "not_before", "done")

    def __init__(self, task: Task, key: str) -> None:
        self.task = task
        self.key = key
        #: One record per failed attempt; ``len`` is also the next
        #: attempt index (and thus the fault-injection draw index).
        self.history: List[Dict[str, Any]] = []
        self.not_before = 0.0  # monotonic instant the next attempt may start
        self.done = False

    @property
    def attempt(self) -> int:
        return len(self.history)


def _payload_metrics(payload: Any) -> Optional[Dict[str, Any]]:
    """Pull the namespaced metrics snapshot out of a task payload.

    Simulation payloads are :class:`~repro.sim.simulator.RunResult`
    objects carrying ``extras["metrics"]``; cache entries written before
    the metrics registry existed (or non-simulation payloads) yield
    ``None``.  Duck-typed so the runner stays import-free of the sim.
    """
    extras = getattr(payload, "extras", None)
    if extras is None and isinstance(payload, dict):
        extras = payload
    if isinstance(extras, dict):
        metrics = extras.get("metrics")
        if isinstance(metrics, dict):
            return metrics
    return None


def _task_fields(task: Task) -> Dict[str, Optional[str]]:
    """Structured identity fields for a task's manifest/timing record."""
    benchmark = task.benchmark
    if benchmark is None and task.scenario is not None:
        benchmark = task.scenario.get("name")
    if benchmark is None and task.trace is not None:
        benchmark = task.trace.name
    return {
        "kind": task.kind,
        "benchmark": benchmark,
        "design": None if task.kind == "pd-sweep" else task.design,
    }


class CampaignEngine:
    """Executes campaign tasks in parallel, behind the persistent cache.

    Args:
        jobs: Worker process count; ``None`` means ``os.cpu_count()``,
            ``1`` forces fully serial in-process execution.
        cache: Persistent result cache, or ``None`` to disable all reads
            and writes (the ``--no-cache`` path).
        salt: Code-version salt folded into every key; defaults to
            :func:`repro.runner.cache.default_salt`.
        retries: Failures tolerated per task before it is declared
            failed (``0`` = one attempt, no retry — the old behavior).
        task_timeout: Per-attempt wall-clock budget in seconds.
            Enforced preemptively in pool mode (the hung worker's pool
            is killed and rebuilt); serial in-process attempts cannot be
            preempted, so the timeout only applies under ``jobs >= 2``.
        backoff_base: First retry delay; doubles per failure of that
            task (``base * 2**(failures-1)``), capped at
            ``backoff_cap``.  Deterministic — no jitter.
        backoff_cap: Upper bound on any single backoff delay.
        keep_going: Record exhausted tasks (payload = :data:`FAILED`)
            and finish the campaign instead of raising on first failure.
        journal: Campaign journal path (or a
            :class:`~repro.runner.journal.CampaignJournal`); every
            completed task key is appended and fsync'd immediately.
        resume: Serve tasks recorded in the journal from the cache and
            execute only the remainder.  Requires ``journal``; tasks
            journaled but missing (or quarantined) from the cache are
            transparently recomputed.
        faults: Optional :class:`repro.faults.FaultPlan` — deterministic
            fault injection for chaos testing.  ``None`` (production)
            costs one attribute check per task.
        manifest_path: When set, an interrupt (Ctrl-C) writes a partial
            manifest here, marked ``"interrupted": true``, before the
            ``KeyboardInterrupt`` propagates.
        control: Optional :class:`EngineControl` — lets another thread
            pause/resume the engine at task boundaries or cancel the
            campaign (:class:`CampaignCancelled`).
        progress: Optional callback receiving one plain-dict event per
            task transition (``task_started`` / ``task_retried`` /
            ``task_failed`` / ``task_completed``); exceptions it raises
            are swallowed.  The service daemon bridges these to its
            subscribers.
        inflight: Optional :class:`~repro.runner.coalesce.InflightRegistry`
            shared with other engines in this process.  Cache misses
            whose key another engine is already executing *follow* that
            execution instead of recomputing (a coalesced hit); keys
            this engine executes are published for others.
        client: Stable identifier for this engine in the shared
            registry (defaults to an id-derived token); surfaces in
            service stats and debugging.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        salt: Optional[str] = None,
        *,
        retries: int = 0,
        task_timeout: Optional[float] = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        keep_going: bool = False,
        journal: Optional[Union[str, os.PathLike, CampaignJournal]] = None,
        resume: bool = False,
        faults: Optional[FaultPlan] = None,
        manifest_path: Optional[Union[str, os.PathLike]] = None,
        control: Optional[EngineControl] = None,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
        inflight: Optional[InflightRegistry] = None,
        client: Optional[str] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        if resume and journal is None:
            raise ValueError("resume=True requires a journal")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.salt = salt if salt is not None else default_salt()
        self.retries = retries
        self.task_timeout = task_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.keep_going = keep_going
        if journal is not None and not isinstance(journal, CampaignJournal):
            journal = CampaignJournal(journal)
        self.journal = journal
        self.resume = resume
        self.faults = faults
        self.manifest_path = Path(manifest_path) if manifest_path is not None else None
        self.control = control
        self.progress = progress
        self.inflight = inflight
        self.client = client if client is not None else f"engine-{id(self):x}"
        self.counters = CampaignCounters()
        #: Final :class:`CampaignTaskError` per exhausted task (keep_going).
        self.failures: List[CampaignTaskError] = []
        self.interrupted = False
        self.cancelled = False
        self._journaled_keys: Dict[str, Dict[str, Any]] = {}
        self._completions = 0  # executed completions (interrupt_after hook)
        self._claims: Dict[str, InflightEntry] = {}  # keys this engine leads
        if self.resume:
            self._journaled_keys = self.journal.load()
            self.journal.seen(self._journaled_keys)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute a batch; returns payloads in submission order.

        Duplicate tasks (same cache key) within a batch execute once and
        share the payload.  Exhausted tasks raise
        :class:`CampaignTaskError` — or, under ``keep_going``, yield the
        :data:`FAILED` sentinel in their payload slots.
        """
        try:
            return self._run(tasks)
        except KeyboardInterrupt:
            self._on_interrupt()
            raise
        except CampaignCancelled:
            self._on_cancel()
            raise
        finally:
            # Release the journal's single-writer lock between batches:
            # every record is already fsync'd, and a sequential engine
            # (e.g. a --resume rerun in the same process) must be able
            # to claim it.  Appends re-open lazily.
            if self.journal is not None:
                self.journal.close()

    def _run(self, tasks: Sequence[Task]) -> List[Any]:
        t0 = time.perf_counter()
        keys = [task.key(self.salt) for task in tasks]
        self.counters.tasks += len(tasks)

        payloads: Dict[str, Any] = {}
        pending: List[Task] = []
        pending_keys: List[str] = []
        for task, key in zip(tasks, keys):
            if key in payloads or key in pending_keys:
                continue
            resumed = self.resume and key in self._journaled_keys
            hit = self.cache.get(key) if self.cache is not None else MISS
            if hit is not MISS:
                payloads[key] = hit
                if resumed:
                    self.counters.resumed += 1
                self._record_done(
                    TaskTiming(label=task.label, key=key, cached=True,
                               seconds=0.0, metrics=_payload_metrics(hit),
                               fidelity=task.fidelity, **_task_fields(task))
                )
            else:
                # A journaled key that misses the cache (entry evicted or
                # quarantined) falls through to recomputation.
                pending.append(task)
                pending_keys.append(key)

        if pending:
            self._execute_pending(pending, pending_keys, payloads)

        self.counters.elapsed_seconds += time.perf_counter() - t0
        return [payloads[key] for key in keys]

    def _execute_pending(
        self, pending: List[Task], pending_keys: List[str], payloads: Dict[str, Any]
    ) -> None:
        """Execute cache misses, coalescing with other engines when shared.

        Without a shared :class:`InflightRegistry` every miss executes
        here.  With one, each key is claimed first: claimed keys (this
        engine leads) execute locally and publish their payloads; keys
        another engine already leads are *followed* — we block on the
        leader's publication instead of recomputing.  Owned work always
        runs before any follow-wait, so two engines leading disjoint
        halves of the same batch can never deadlock on each other.
        """
        if self.inflight is None:
            self._dispatch(pending, pending_keys, payloads)
            return
        owned: List[Task] = []
        owned_keys: List[str] = []
        followed: List[Tuple[Task, str, InflightEntry]] = []
        try:
            for task, key in zip(pending, pending_keys):
                leader, entry = self.inflight.claim(key, self.client)
                if leader:
                    self._claims[key] = entry
                    owned.append(task)
                    owned_keys.append(key)
                else:
                    followed.append((task, key, entry))
            if owned:
                self._dispatch(owned, owned_keys, payloads)
            for task, key, entry in followed:
                self._follow(task, key, entry, payloads)
        finally:
            # Claims still unpublished here unwound abnormally (cancel,
            # interrupt, first-failure raise): wake their followers so
            # one of them re-claims and executes for itself.
            for key, entry in list(self._claims.items()):
                self.inflight.abandon(entry, "leader aborted without publishing")
                del self._claims[key]

    def _dispatch(
        self, pending: List[Task], pending_keys: List[str], payloads: Dict[str, Any]
    ) -> None:
        if self.jobs == 1 or len(pending) == 1:
            self._run_serial(pending, pending_keys, payloads)
        else:
            self._run_pool(pending, pending_keys, payloads)

    def _follow(
        self, task: Task, key: str, entry: InflightEntry, payloads: Dict[str, Any]
    ) -> None:
        """Wait for another engine's execution of ``key`` and share it.

        A leader that fails (or unwinds without publishing) does not
        poison this engine: the follower re-claims the key and executes
        with its own retry budget, or follows whichever engine beat it
        to the re-claim.
        """
        while True:
            self._await_entry(entry)
            if entry.succeeded:
                payload = entry.payload
                payloads[key] = payload
                self._record_done(
                    TaskTiming(label=task.label, key=key, cached=False,
                               coalesced=True, seconds=0.0,
                               metrics=_payload_metrics(payload),
                               fidelity=task.fidelity, **_task_fields(task))
                )
                return
            leader, entry = self.inflight.claim(key, self.client)
            if leader:
                self._claims[key] = entry
                self._dispatch([task], [key], payloads)
                return

    def _await_entry(self, entry: InflightEntry) -> None:
        """Block until ``entry`` publishes, staying cancellable."""
        while not entry.event.wait(_POLL_TICK):
            if self.control is not None and self.control.cancelled:
                raise CampaignCancelled("campaign cancelled while coalescing")

    # -- serial path ----------------------------------------------------
    def _run_serial(
        self, pending: List[Task], pending_keys: List[str], payloads: Dict[str, Any]
    ) -> None:
        # Consecutive tasks on one workload share its trace and core
        # arrays; the slot lives exactly as long as this batch.
        slot = WorkloadSlot()
        for task, key in zip(pending, pending_keys):
            state = _TaskState(task, key)
            while not state.done:
                if self.control is not None:
                    self.control.checkpoint()  # parks while paused
                delay = state.not_before - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                self._emit("task_started", label=task.label, key=key,
                           attempt=state.attempt)
                try:
                    payload, seconds = run_task_armed(
                        task, key, state.attempt, self.faults, slot
                    )
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    slot.clear()  # a retry recomputes from scratch
                    self._charge(state, _classify(exc), _describe(exc), payloads)
                else:
                    self._complete(state, payload, seconds, payloads)

    # -- pool path ------------------------------------------------------
    def _run_pool(
        self, pending: List[Task], pending_keys: List[str], payloads: Dict[str, Any]
    ) -> None:
        states = {
            key: _TaskState(task, key) for task, key in zip(pending, pending_keys)
        }
        while True:
            incomplete = [s for s in states.values() if not s.done]
            if not incomplete:
                return
            workers = min(self.jobs, len(incomplete))
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                self._pool_round(pool, states, payloads)
                pool.shutdown()
                return
            except _PoolReset:
                self._kill_pool(pool)
                self.counters.pool_rebuilds += 1
            except BaseException:
                self._kill_pool(pool)
                raise

    def _pool_round(
        self,
        pool: ProcessPoolExecutor,
        states: Dict[str, _TaskState],
        payloads: Dict[str, Any],
    ) -> None:
        """Drive one pool until the batch completes or the pool must die.

        Raises :class:`_PoolReset` after charging the affected tasks
        when a worker crashes (``BrokenProcessPool``) or a task overruns
        ``task_timeout`` — the caller kills this pool and builds a fresh
        one for whatever remains.
        """
        inflight: Dict[Any, str] = {}  # future -> key
        started: Dict[Any, float] = {}  # future -> first-seen-running instant
        try:
            self._pool_loop(pool, states, payloads, inflight, started)
        except _PoolResetTimeout as reset:
            # The overdue task gets the timeout on its record; everything
            # else in flight is charged a preemption (the pool must die,
            # and blame cannot be split more finely than that).
            self._charge(
                states[reset.key], "timeout",
                f"exceeded task_timeout={self.task_timeout}s", payloads,
            )
            for key in set(inflight.values()):
                state = states[key]
                if key != reset.key and not state.done:
                    self._charge(
                        state, "preempted",
                        "pool killed while reclaiming a hung worker", payloads,
                    )
            raise _PoolReset()
        except BrokenProcessPool:
            # A worker died (real crash or injected os._exit).  The pool
            # is unusable and the crash cannot be attributed to one
            # future, so every in-flight task is charged one failure.
            for key in set(inflight.values()):
                if not states[key].done:
                    self._charge(
                        states[key], "worker-crash",
                        "worker process died while task was in flight", payloads,
                    )
            raise _PoolReset()

    def _pool_loop(
        self,
        pool: ProcessPoolExecutor,
        states: Dict[str, _TaskState],
        payloads: Dict[str, Any],
        inflight: Dict[Any, str],
        started: Dict[Any, float],
    ) -> None:
        while True:
            paused = False
            if self.control is not None:
                if self.control.cancelled:
                    raise CampaignCancelled("campaign cancelled")
                paused = self.control.paused
            now = time.monotonic()
            busy = set(inflight.values())
            ready = [] if paused else [
                s for s in states.values()
                if not s.done and s.key not in busy and s.not_before <= now
            ]
            for state in ready:
                self._emit("task_started", label=state.task.label,
                           key=state.key, attempt=state.attempt)
                future = pool.submit(
                    run_task_armed, state.task, state.key, state.attempt,
                    self.faults,
                )
                inflight[future] = state.key
            if not inflight:
                if paused:
                    # Nothing in flight and submissions held: park until
                    # resume/cancel (bounded waits keep cancel prompt).
                    self.control.checkpoint(_POLL_TICK)
                    continue
                waiting = [s.not_before for s in states.values() if not s.done]
                if not waiting:
                    return  # batch complete
                time.sleep(max(0.0, min(waiting) - time.monotonic()))
                continue

            # Poll when a deadline, a backoff or an external control
            # needs watching; block indefinitely otherwise (the common
            # fault-free, uncontrolled case).
            poll = (
                _POLL_TICK
                if self.task_timeout is not None
                or self.control is not None
                or any(s.not_before > now for s in states.values() if not s.done)
                else None
            )
            done_set, _ = wait(
                set(inflight), timeout=poll, return_when=FIRST_COMPLETED
            )
            self._check_deadlines(inflight, started, done_set)
            for future in done_set:
                key = inflight.pop(future)
                started.pop(future, None)
                state = states[key]
                try:
                    payload, seconds = future.result()
                except KeyboardInterrupt:
                    raise
                except BrokenProcessPool:
                    inflight[future] = key  # restore: charged by the caller
                    raise
                except Exception as exc:
                    self._charge(state, _classify(exc), _describe(exc), payloads)
                else:
                    self._complete(state, payload, seconds, payloads)

    def _check_deadlines(
        self,
        inflight: Dict[Any, str],
        started: Dict[Any, float],
        done_set,
    ) -> None:
        """Stamp run starts and enforce ``task_timeout`` on live futures."""
        if self.task_timeout is None:
            return
        now = time.monotonic()
        overdue = None
        for future, key in inflight.items():
            if future in done_set:
                continue
            if future not in started:
                if future.running():
                    started[future] = now
            elif now - started[future] > self.task_timeout:
                overdue = (future, key)
                break
        if overdue is None:
            return
        # Kill the whole pool: a hung worker cannot be cancelled through
        # the executor API.  The overdue task is charged a timeout; other
        # in-flight tasks are charged a preemption (attribution is
        # impossible once the pool dies — bounded either way).
        future, key = overdue
        self.counters.timeouts += 1
        raise _PoolResetTimeout(future, key)

    # -- bookkeeping ----------------------------------------------------
    def _charge(
        self,
        state: _TaskState,
        kind: str,
        error: str,
        payloads: Dict[str, Any],
    ) -> None:
        """Record one failure; schedule a retry or finalize the task."""
        state.history.append(
            {"attempt": state.attempt, "kind": kind, "error": error}
        )
        if len(state.history) > self.retries:
            err = CampaignTaskError(state.task.label, state.key, state.history)
            state.done = True
            self.counters.failed += 1
            self._publish(state.key, error=err)
            self._emit("task_failed", label=state.task.label, key=state.key,
                       attempts=len(state.history), error=error)
            if not self.keep_going:
                raise err
            self.failures.append(err)
            payloads[state.key] = FAILED
            self._record_done(
                TaskTiming(label=state.task.label, key=state.key, cached=False,
                           seconds=0.0, metrics=None,
                           attempts=len(state.history), failed=True,
                           fidelity=state.task.fidelity,
                           **_task_fields(state.task))
            )
            return
        self.counters.retries += 1
        backoff = min(
            self.backoff_cap,
            self.backoff_base * (2 ** (len(state.history) - 1)),
        )
        state.not_before = time.monotonic() + backoff
        self._emit("task_retried", label=state.task.label, key=state.key,
                   attempt=state.attempt, kind=kind, error=error,
                   backoff=backoff)

    def _complete(
        self,
        state: _TaskState,
        payload: Any,
        seconds: float,
        payloads: Dict[str, Any],
    ) -> None:
        state.done = True
        payloads[state.key] = payload
        if self.cache is not None:
            self.cache.put(state.key, payload)
            if (
                self.faults is not None
                and self.cache.enabled
                and self.faults.decide_corrupt(state.key)
            ):
                corrupt_file(self.cache.path_for(state.key), self.faults.seed)
        self._publish(state.key, payload=payload)
        self._record_done(
            TaskTiming(label=state.task.label, key=state.key, cached=False,
                       seconds=seconds, metrics=_payload_metrics(payload),
                       attempts=state.attempt + 1,
                       fidelity=state.task.fidelity,
                       **_task_fields(state.task))
        )
        self._completions += 1
        if (
            self.faults is not None
            and self.faults.interrupt_after is not None
            and self._completions >= self.faults.interrupt_after
        ):
            raise KeyboardInterrupt(
                f"injected interrupt after {self._completions} completions"
            )

    def _publish(self, key: str, payload: Any = None, error: Optional[BaseException] = None) -> None:
        """Resolve this engine's in-flight claim on ``key``, if any."""
        entry = self._claims.pop(key, None)
        if entry is None:
            return
        if error is not None:
            self.inflight.publish(entry, error=error)
        else:
            self.inflight.publish(entry, payload=payload)

    def _emit(self, event: str, **fields: Any) -> None:
        """Push one progress event to the ``progress`` callback (if any).

        Subscriber bugs must never take the campaign down, so callback
        exceptions are swallowed here.
        """
        if self.progress is None:
            return
        try:
            self.progress({"event": event, "client": self.client, **fields})
        except Exception:
            pass

    def _record_done(self, timing: TaskTiming) -> None:
        self.counters.record(timing)
        if self.journal is not None and not timing.failed:
            self.journal.append(
                {
                    "key": timing.key,
                    "label": timing.label,
                    "cached": timing.cached,
                    "coalesced": timing.coalesced,
                    "seconds": round(timing.seconds, 6),
                    "attempts": timing.attempts,
                    "fidelity": timing.fidelity,
                }
            )
        self._emit("task_completed", label=timing.label, key=timing.key,
                   cached=timing.cached, coalesced=timing.coalesced,
                   seconds=round(timing.seconds, 6), attempts=timing.attempts,
                   failed=timing.failed)

    def _on_cancel(self) -> None:
        """Cancel landing spot: persist progress before propagating."""
        self.cancelled = True
        if self.manifest_path is not None:
            try:
                self.write_manifest(self.manifest_path)
            except OSError:
                pass  # the journal already has every completed record

    def _on_interrupt(self) -> None:
        """Ctrl-C landing spot: persist progress before propagating."""
        self.interrupted = True
        if self.journal is not None:
            self.journal.close()  # every record is already on disk
        if self.manifest_path is not None:
            try:
                self.write_manifest(self.manifest_path)
            except OSError:
                pass  # dying anyway; the journal is the source of truth

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even when workers are hung or dead.

        ``shutdown()`` alone would join hung workers forever, so worker
        processes are terminated first (via the executor's process map —
        private but stable across CPython 3.8-3.13).
        """
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass

    def run_one(self, task: Task) -> Any:
        """Convenience wrapper: execute a single task through the cache."""
        return self.run([task])[0]

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def manifest(self) -> Dict[str, Any]:
        """Everything a rerun needs to audit this campaign, as plain data."""
        cache_info: Dict[str, Any] = {"enabled": self.cache is not None}
        if self.cache is not None:
            cache_info.update(
                root=str(self.cache.root) if self.cache.enabled else None,
                **self.cache.counter_snapshot(),
            )
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "git_commit": git_commit(),
            "salt": self.salt,
            "jobs": self.jobs,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "interrupted": self.interrupted,
            "cancelled": self.cancelled,
            "cache": cache_info,
            "counters": self.counters.snapshot(),
            "resilience": {
                "retries_budget": self.retries,
                "task_timeout": self.task_timeout,
                "keep_going": self.keep_going,
                "resume": self.resume,
                "journal": str(self.journal.path) if self.journal else None,
                "faults_armed": self.faults is not None,
                "failed_tasks": [
                    {"label": f.label, "key": f.key, "history": f.history}
                    for f in self.failures
                ],
            },
            "metrics": self.metrics_snapshot(),
            "tasks": [
                {
                    "label": t.label,
                    "kind": t.kind,
                    "benchmark": t.benchmark,
                    "design": t.design,
                    "key": t.key,
                    "cached": t.cached,
                    "coalesced": t.coalesced,
                    "seconds": round(t.seconds, 6),
                    "attempts": t.attempts,
                    "failed": t.failed,
                    "fidelity": t.fidelity,
                    # Per-task metrics snapshot (repro.obs.metrics); None
                    # for payloads that carry none.
                    "metrics": t.metrics,
                }
                for t in self.counters.timings
            ],
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Campaign counters as a ``repro.obs`` metrics snapshot.

        Same flat-namespace shape as the per-run simulation metrics
        (``campaign.retries``, ``campaign.cache.quarantined``, …) so
        dashboards can treat campaign health like any other component.
        """
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry(prefix="campaign.")
        c = self.counters
        for name, value in (
            ("tasks", c.tasks),
            ("unique_tasks", c.unique_tasks),
            ("executed", c.executed),
            ("retries", c.retries),
            ("timeouts", c.timeouts),
            ("pool_rebuilds", c.pool_rebuilds),
            ("failed", c.failed),
            ("resumed", c.resumed),
            ("coalesced", c.coalesced),
            ("cache.hits", c.cache_hits),
            ("cache.misses", c.cache_misses),
        ):
            reg.counter(name).inc(value)
        if self.cache is not None:
            reg.counter("cache.quarantined").inc(self.cache.quarantined)
            reg.counter("cache.quarantine_dropped").inc(self.cache.quarantine_dropped)
            reg.counter("cache.corrupt").inc(self.cache.corrupt)
        reg.gauge("interrupted").set(int(self.interrupted))
        return reg.snapshot()

    def write_manifest(self, path: Union[str, os.PathLike]) -> Path:
        """Write the manifest as JSON (atomically); returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(self.manifest(), indent=2, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(blob + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cache = "on" if self.cache is not None else "off"
        return (
            f"<CampaignEngine jobs={self.jobs} cache={cache} "
            f"retries={self.retries}>"
        )


class _PoolResetTimeout(_PoolReset):
    """Pool reset triggered by a task deadline (carries the culprit)."""

    def __init__(self, future: Any, key: str) -> None:
        super().__init__()
        self.future = future
        self.key = key


def _classify(exc: Exception) -> str:
    """Failure-kind tag for the attempt history (stable, greppable)."""
    from repro import faults

    if isinstance(exc, faults.TransientFault):
        return "transient"
    if isinstance(exc, faults.HangFault):
        return "hang"
    if isinstance(exc, faults.WorkerCrashFault):
        return "worker-crash"
    return "error"


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_campaign(
    tasks: Sequence[Task],
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    **engine_kwargs: Any,
) -> List[Any]:
    """One-shot helper: build an engine, run a batch, return payloads."""
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return CampaignEngine(jobs=jobs, cache=cache, **engine_kwargs).run(tasks)
