"""The vectorized functional replay engine.

Bit-identical (by contract and by ``tests/test_functional_equivalence.py``)
to the scalar oracle :func:`repro.sim.replay.replay`, at a fraction of the
cost.  The speed comes from four observations about the oracle:

1. Its global interleave is a pure function of the per-core stream
   lengths, so every transaction's global time is precomputed up front
   (:mod:`repro.sim.functional.streams`).
2. L1 state is core-private, and for the batchable designs (bs, bs-s,
   gc, gc-m, dbp) neither load hits **nor stores** touch any bypass
   decision state (L1 is write-through no-allocate: store misses leave
   L1 untouched, store hits restamp exactly like load hits).  Runs of
   hits and stores are therefore applied eagerly per core — walked
   scalar over plain-list state, escalating to chunked NumPy probes
   once a run proves long — without consulting the global order.  The
   PDP family mutates per-set clocks and samplers on every access, so
   its walk calls the per-access hooks (with each access's precomputed
   ``now``) and never escalates to probes; the state stays per-core.
3. The only globally-ordered state is the shared L2 (tags, recency,
   dirty bits, victim bits), and it is all **per-(bank, set)**: the
   observable order is per-set order, not global order.  Designs that
   never feed L2 state back into L1 decisions (no victim-bit hints:
   bs, bs-s, dbp, the PDP family, and every design with the L2
   disabled) replay L1 to completion per core, then apply the entire
   L2 event stream as batched per-set bursts with vectorized victim
   selection (:mod:`repro.sim.functional.bursts`) — no heap at all.
4. The hint-coupled G-Cache designs (gc, gc-m) must resolve each load
   miss in order (the hint changes the fill, which changes the core's
   future hits), so their load misses still drain through a min-heap —
   but *only* load misses: stores are folded into the per-core runs and
   their L2 effects parked in per-(bank, set) buffers, flushed in time
   order just before the next same-set miss.  A store's time is always
   below every parked miss time when its core walks past it, so the
   deferral never reorders observable same-set state.

:meth:`FunctionalEngine.run` therefore picks one of three paths from
the design alone: the miss heap (victim bits in use), full L1+L2 bursts
(null management: bs, bs-s), or the per-core walk followed by one L2
burst (everything else).  The L2 burst runs only when the L2 is modelled.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.addressing import AddressMap
from repro.sim.config import GPUConfig
from repro.sim.designs import DesignSpec, make_design
from repro.sim.functional.bursts import l1_burst, l2_burst
from repro.sim.functional.policies import (
    FunctionalUnsupportedError,
    MgmtModel,
    build_models,
)
from repro.sim.functional.streams import build_core_arrays
from repro.sim.replay import ReplayResult, build_core_streams
from repro.stats.counters import CacheStats
from repro.trace.trace import KernelTrace

__all__ = [
    "FunctionalEngine",
    "FunctionalUnsupportedError",
    "functional_replay",
    "prepare_core_arrays",
]

#: Consecutive non-miss accesses walked scalar before escalating to
#: NumPy probes.
_PROBE_THRESHOLD = 32
_MIN_CHUNK = 16
_MAX_CHUNK = 4096


class _L1State:
    """Structure-of-arrays L1 mirror (FlatTagStore's flat layout).

    Hot state lives in plain Python lists — scalar element access on a
    list is several times cheaper than NumPy item extraction, and the
    event path is scalar.  ``tag`` alone is mirrored into a dense NumPy
    plane (``tag_np`` flat / ``tag2d`` per-set view of the same buffer)
    for the bulk hit probes; the mirror is refreshed on fill only.
    """

    __slots__ = (
        "num_sets",
        "ways",
        "tag",
        "tag_np",
        "tag2d",
        "stamp",
        "rrpv",
        "use",
        "fill_time",
        "pd",
        "valid_count",
    )

    def __init__(self, num_sets: int, ways: int) -> None:
        n = num_sets * ways
        self.num_sets = num_sets
        self.ways = ways
        self.tag = [-1] * n
        self.tag_np = np.full(n, -1, dtype=np.int64)
        self.tag2d = self.tag_np.reshape(num_sets, ways)
        self.stamp = [0] * n
        self.rrpv = [0] * n
        self.use = [0] * n
        self.fill_time = [0] * n
        self.pd = [0] * n
        self.valid_count = [0] * num_sets


class _L2Bank:
    """One L2 bank: scalar-only state (plain Python lists)."""

    __slots__ = (
        "ways",
        "tag",
        "stamp",
        "dirty",
        "use",
        "vb",
        "valid_count",
        "tick",
    )

    def __init__(self, num_sets: int, ways: int) -> None:
        n = num_sets * ways
        self.ways = ways
        self.tag = [-1] * n
        self.stamp = [0] * n
        self.dirty = bytearray(n)
        self.use = [0] * n
        self.vb = [0] * n
        self.valid_count = [0] * num_sets
        self.tick = 0


class FunctionalEngine:
    """Replays kernel traces through structure-of-arrays cache state.

    Persistent across :meth:`run` calls, so a warm-cache kernel sequence
    behaves like the oracle driven over the same cache objects.  Call
    :meth:`result` to snapshot merged statistics (resident generations
    are counted into the snapshot without disturbing live state, so the
    engine can keep running afterwards).

    With ``profile=True`` the engine accumulates a wall-clock breakdown
    in :attr:`phase_seconds` — ``"burst"`` (vectorized per-set L2
    rounds), ``"probe"`` (chunked NumPy L1 probes) and
    ``"scalar_event"`` (everything scalar: walks, heap events, store
    flushes) — so the remaining scalar residue is measurable.
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        design: Optional[DesignSpec] = None,
        include_l2: bool = True,
        victim_share_factor: int = 1,
        scheduler: str = "lrr",
        profile: bool = False,
    ) -> None:
        self.config = config if config is not None else GPUConfig()
        self.design = design if design is not None else make_design("bs")
        self.include_l2 = include_l2
        self.scheduler = scheduler
        self.repl, self.mgmt = build_models(self.design)
        self._batchable = self.mgmt.batchable
        if include_l2 and self.design.uses_victim_bits and not self._batchable:
            # The miss heap resolves hints in order but calls no
            # per-access hooks, so such a model would count wrong.
            raise FunctionalUnsupportedError(
                f"design {self.design.key!r} combines victim-bit hints "
                f"with per-access management hooks"
            )
        self._lru = self.repl.kind == "lru"
        # Which hooks the model actually overrides; the event loop skips
        # the Python call entirely for base-class no-ops.
        mgmt_cls = type(self.mgmt)
        self._null_mgmt = mgmt_cls is MgmtModel
        self._has_choose = mgmt_cls.choose_victim is not MgmtModel.choose_victim
        self._has_evict = mgmt_cls.on_evict is not MgmtModel.on_evict
        self._has_insert = mgmt_cls.on_insert is not MgmtModel.on_insert
        cfg = self.config
        self.l1 = [
            _L1State(cfg.l1_sets, cfg.l1_ways) for _ in range(cfg.num_cores)
        ]
        self._repl_st = [self.repl.new_core() for _ in range(cfg.num_cores)]
        self._mgmt_st = [
            self.mgmt.new_core(cfg.l1_sets, cfg.l1_ways)
            for _ in range(cfg.num_cores)
        ]
        self._tick_interval = self.mgmt.tick_interval
        self._tick_left = [self._tick_interval] * cfg.num_cores
        self._chunk = [64] * cfg.num_cores
        self.l2: List[_L2Bank] = []
        self._vd_masks: Optional[List[int]] = None
        if include_l2:
            self.l2 = [
                _L2Bank(cfg.l2_bank_sets, cfg.l2_ways)
                for _ in range(cfg.num_partitions)
            ]
            if self.design.uses_victim_bits:
                if victim_share_factor < 1 or (
                    cfg.num_cores % victim_share_factor
                ):
                    raise ValueError(
                        f"share_factor {victim_share_factor} must divide "
                        f"the L1 count {cfg.num_cores}"
                    )
                self._vd_masks = [
                    1 << (i // victim_share_factor)
                    for i in range(cfg.num_cores)
                ]
        self.addr_map = AddressMap(cfg.num_partitions, cfg.mc_interleave_lines)
        self.phase_seconds = {"burst": 0.0, "probe": 0.0, "scalar_event": 0.0}
        self._prof = self.phase_seconds if profile else None
        # Merged counters (per-core/per-bank breakdown is never reported).
        self.l1_loads = 0
        self.l1_stores = 0
        self.l1_load_hits = 0
        self.l1_store_hits = 0
        self.l1_fills = 0
        self.l1_bypasses = 0
        self.l1_evictions = 0
        self.l1_reuse: Counter = Counter()
        self.l2_loads = 0
        self.l2_stores = 0
        self.l2_load_hits = 0
        self.l2_store_hits = 0
        self.l2_fills = 0
        self.l2_evictions = 0
        self.l2_writebacks = 0
        self.l2_reuse: Counter = Counter()
        self.hints_returned = 0
        self.contentions_detected = 0
        self.instructions = 0
        self.transactions = 0
        self.kernels: List[str] = []
        # Per-run scratch (miss heap only).
        self._arrays = None
        self._pos: List[int] = []

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, trace: KernelTrace, streams=None, arrays=None) -> None:
        """Replay one kernel, continuing from the current cache state.

        ``streams`` (from :func:`build_core_streams`) and ``arrays``
        (from :func:`~repro.sim.functional.streams.build_core_arrays`)
        are design-independent, so sweeps replaying one trace through
        many designs can prepare them once.  Prebuilt ``arrays`` carry
        absolute transaction times and are only valid on a cold engine.
        """
        if arrays is not None:
            if self.transactions:
                raise ValueError(
                    "prebuilt arrays carry kernel-start transaction "
                    "times; they cannot continue a warm engine"
                )
        else:
            arrays = prepare_core_arrays(
                trace,
                self.config,
                self.scheduler,
                include_l2=self.include_l2,
                streams=streams,
                addr_map=self.addr_map,
                now_offset=self.transactions,
            )
        if self._vd_masks is not None:
            self._run_missheap(arrays)
        else:
            # No cross-core feedback into L1: replay each core to
            # completion, then burst the whole L2 event stream.
            if self._null_mgmt:
                ev = self._run_l1_burst(arrays)
            else:
                ev = self._run_walks(arrays)
            if self.include_l2 and ev.size:
                self._run_l2_burst(arrays, ev)
        self.transactions += sum(a.n for a in arrays)
        self.instructions += trace.instruction_count()
        self.kernels.append(trace.name)

    # ------------------------------------------------------------------
    # Decoupled paths (every design without victim-bit hints): per-core
    # L1 replay, then one batched per-set L2 burst.
    # ------------------------------------------------------------------
    def _run_walks(self, arrays) -> np.ndarray:
        """Walk every core's L1 start to finish; return the L2 events.

        Valid when the design raises no victim-bit hints: L1 evolution
        is then a pure function of the core-private stream (mgmt state
        is per-core and reads only that stream and its precomputed
        ``now``), and the L2 event stream is order-observable only
        within each (bank, set) — exactly what the burst kernel
        preserves.  Returns the events' flat positions over the cores'
        concatenated columns.
        """
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
            p0 = prof["probe"]
        batchable = self._batchable
        out: List[np.ndarray] = []
        offset = 0
        for c, A in enumerate(arrays):
            if batchable:
                A.ensure_probe()
            A.ensure_scalar_l1()
            A.ensure_times()
            ev: List[int] = []
            self._walk_core(c, A, ev)
            out.append(np.array(ev, dtype=np.int64) + offset)
            offset += A.n
        if prof is not None:
            prof["scalar_event"] += (
                perf_counter() - t0 - (prof["probe"] - p0)
            )
        return np.concatenate(out)

    def _run_l1_burst(self, arrays) -> np.ndarray:
        """Null-management fast path (bs, bs-s): no scalar L1 at all.

        With no management hooks and no tick, L1 behaviour is a pure
        per-(core, set) function of the stream, so the whole L1 replay
        runs as one :func:`l1_burst` over every core's concatenated
        columns.  Returns the L2 events' flat positions, as
        :meth:`_run_walks` does.
        """
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        S1 = self.config.l1_sets
        for A in arrays:
            A.ensure_probe()
        (
            loads,
            load_hits,
            stores,
            store_hits,
            fills,
            evictions,
            ev,
        ) = l1_burst(
            self.l1,
            S1,
            self.repl.kind,
            self.repl.max_rrpv,
            self.repl.insertion_rrpv,
            self._repl_st,
            np.concatenate([A.set1 + c * S1 for c, A in enumerate(arrays)]),
            np.concatenate([A.line for A in arrays]),
            np.concatenate([A.write for A in arrays]),
            self.l1_reuse,
        )
        self.l1_loads += loads
        self.l1_load_hits += load_hits
        self.l1_stores += stores
        self.l1_store_hits += store_hits
        self.l1_fills += fills
        self.l1_evictions += evictions
        if prof is not None:
            prof["burst"] += perf_counter() - t0
        return ev

    def _run_l2_burst(self, arrays, ev: np.ndarray) -> None:
        """Apply the L2 events at flat positions ``ev`` as one burst."""
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        for A in arrays:
            A.ensure_probe()
            A.ensure_l2()

        def column(name: str) -> np.ndarray:
            return np.concatenate([getattr(A, name) for A in arrays])[ev]

        (
            l2_loads,
            l2_stores,
            l2_load_hits,
            l2_store_hits,
            l2_fills,
            l2_evictions,
            l2_writebacks,
        ) = l2_burst(
            self.l2,
            self.config.l2_bank_sets,
            column("now"),
            column("part"),
            column("local"),
            column("set2"),
            column("write"),
            self.l2_reuse,
        )
        self.l2_loads += l2_loads
        self.l2_stores += l2_stores
        self.l2_load_hits += l2_load_hits
        self.l2_store_hits += l2_store_hits
        self.l2_fills += l2_fills
        self.l2_evictions += l2_evictions
        self.l2_writebacks += l2_writebacks
        if prof is not None:
            prof["burst"] += perf_counter() - t0

    def _count_ticks(self, c: int, accesses: int) -> None:
        """Advance core ``c``'s periodic-tick countdown by ``accesses``.

        All fires within the span collapse to one: callers settle the
        countdown at every load miss (before its fill decision) and at
        the end of the stream, and nothing in between — hits, stores and
        their hooks — reads or re-arms the state a tick resets.
        """
        left = self._tick_left[c]
        if accesses >= left:
            self.mgmt.on_tick_fire(self._mgmt_st[c])
            self._tick_left[c] = self._tick_interval - (
                (accesses - left) % self._tick_interval
            )
        else:
            self._tick_left[c] = left - accesses

    def _walk_core(self, c: int, A, ev: List[int]) -> None:
        """Sequential start-to-finish replay of one core's L1.

        Hits and stores are applied inline (escalating to NumPy probes
        on long runs of a batchable design); load misses fill
        immediately with ``hint=False``.  Models with per-access hooks
        (the PDP family) get ``on_hit``/``on_miss`` on every access and
        are walked access by access.  Every hook sees the access's
        precomputed ``now``.  Every L2 event's stream position (all
        stores + all load misses) is appended to ``ev``, unordered — the
        burst kernel re-sorts per (bank, set) by precomputed time.
        """
        l1 = self.l1[c]
        ways = l1.ways
        tag = l1.tag
        tag_np = l1.tag_np
        use = l1.use
        stamp = l1.stamp
        rrpv = l1.rrpv
        fill_time = l1.fill_time
        vc_l = l1.valid_count
        line_l = A.line_l
        write_l = A.write_l
        set1_l = A.set1_l
        now_l = A.now_l
        n = A.n
        lru = self._lru
        rst = self._repl_st[c]
        mgmt = self.mgmt
        mst = self._mgmt_st[c]
        hooks = not self._batchable
        tick = self._tick_interval
        has_choose = self._has_choose
        has_evict = self._has_evict
        has_insert = self._has_insert
        insertion_rrpv = self.repl.insertion_rrpv
        select_victim = self.repl.select_victim
        on_hit = mgmt.on_hit
        on_miss = mgmt.on_miss
        fill_decision = mgmt.fill_decision
        on_bypass = mgmt.on_bypass
        choose_victim = mgmt.choose_victim
        on_evict = mgmt.on_evict
        on_insert = mgmt.on_insert
        reuse = self.l1_reuse
        append = ev.append
        probe_fold = self._probe_fold
        # Per-access hooks rule out folding a run into one probe.
        probe_at = n + 1 if hooks else _PROBE_THRESHOLD
        loads = stores = load_hits = store_hits = 0
        fills = bypasses = evictions = 0
        pos = 0
        streak = 0
        ticked = 0  # stream prefix already counted into the tick
        while pos < n:
            line = line_l[pos]
            set_index = set1_l[pos]
            base = set_index * ways
            seg = tag[base : base + ways]
            if line in seg:
                idx = base + seg.index(line)
                use[idx] += 1
                if lru:
                    t = rst[0] + 1
                    rst[0] = t
                    stamp[idx] = t
                else:
                    rrpv[idx] = 0
                if hooks:
                    on_hit(mst, l1, set_index, idx, line, now_l[pos])
                if write_l[pos]:
                    stores += 1
                    store_hits += 1
                    append(pos)
                else:
                    loads += 1
                    load_hits += 1
                pos += 1
                streak += 1
                if streak >= probe_at:
                    pos, dl, dlh, ds, dsh = probe_fold(c, A, l1, pos, n, ev)
                    loads += dl
                    load_hits += dlh
                    stores += ds
                    store_hits += dsh
                    streak = 0
                continue
            if hooks:
                on_miss(mst, l1, set_index, now_l[pos])
            if write_l[pos]:
                # Write-through no-allocate: store misses skip L1 state.
                stores += 1
                append(pos)
                pos += 1
                streak += 1
                continue
            # Load miss: fill inline (hints never fire on this path).
            loads += 1
            append(pos)
            streak = 0
            now = now_l[pos]
            if tick:
                self._count_ticks(c, pos + 1 - ticked)
                ticked = pos + 1
            if fill_decision(mst, l1, set_index, line, False, now):
                bypasses += 1
                on_bypass(mst, l1, set_index, now)
            else:
                vcv = vc_l[set_index]
                if vcv < ways:
                    way = vcv
                    vc_l[set_index] = vcv + 1
                else:
                    way = (
                        choose_victim(mst, l1, set_index, now)
                        if has_choose
                        else None
                    )
                    if way is None:
                        if lru:
                            sseg = stamp[base : base + ways]
                            way = sseg.index(min(sseg))
                        else:
                            way = select_victim(rst, l1, base, base + ways)
                    idx = base + way
                    evictions += 1
                    reuse[use[idx]] += 1
                    if has_evict:
                        on_evict(mst, l1, idx, now)
                idx = base + way
                tag[idx] = line
                tag_np[idx] = line
                use[idx] = 0
                fill_time[idx] = now
                fills += 1
                if lru:
                    t = rst[0] + 1
                    rst[0] = t
                    stamp[idx] = t
                else:
                    rrpv[idx] = insertion_rrpv
                if has_insert:
                    on_insert(mst, l1, idx, False, now)
            pos += 1
        if tick:
            self._count_ticks(c, n - ticked)
        self.l1_loads += loads
        self.l1_stores += stores
        self.l1_load_hits += load_hits
        self.l1_store_hits += store_hits
        self.l1_fills += fills
        self.l1_bypasses += bypasses
        self.l1_evictions += evictions

    def _probe_fold(
        self, c: int, A, l1: _L1State, pos: int, n: int, store_sink: List[int]
    ) -> Tuple[int, int, int, int, int]:
        """Chunked NumPy classification of a run of hits **and stores**.

        Stops only at load misses (store misses touch no L1 state and
        store hits restamp like load hits, so neither breaks the run).
        Store positions are appended to ``store_sink``; hits are applied
        through ``on_hit_run`` in access order (store hits included, so
        last-touch-wins stamping matches the oracle).  Returns
        ``(new_pos, loads, load_hits, stores, store_hits)``.
        """
        prof = self._prof
        if prof is not None:
            t0 = perf_counter()
        tag2d = l1.tag2d
        line = A.line
        set1 = A.set1
        write = A.write
        use = l1.use
        ways = l1.ways
        rst = self._repl_st[c]
        on_hit_run = self.repl.on_hit_run
        chunk = self._chunk[c]
        loads = load_hits = stores = store_hits = 0
        while True:
            end = pos + chunk
            if end > n:
                end = n
            sets = set1[pos:end]
            eq = tag2d[sets] == line[pos:end, None]
            hit = eq.any(axis=1)
            wv = write[pos:end]
            stop = ~(hit | wv)
            nz = np.flatnonzero(stop)
            k = int(nz[0]) if nz.size else end - pos
            if k:
                hitk = hit[:k]
                wk = wv[:k]
                nstores = int(np.count_nonzero(wk))
                if nstores:
                    store_sink.extend((pos + np.flatnonzero(wk)).tolist())
                    store_hits += int(np.count_nonzero(hitk & wk))
                    slots = (
                        sets[:k][hitk] * ways + eq[:k][hitk].argmax(axis=1)
                    ).tolist()
                else:
                    slots = (
                        sets[:k] * ways + eq[:k].argmax(axis=1)
                    ).tolist()
                stores += nstores
                # Every load in the prefix is a hit (stops are misses).
                loads += k - nstores
                load_hits += k - nstores
                for idx in slots:
                    use[idx] += 1
                on_hit_run(rst, l1, slots)
                pos += k
            if nz.size:
                # Adapt the probe width to the observed run length.
                self._chunk[c] = min(_MAX_CHUNK, max(_MIN_CHUNK, 2 * k))
                break
            if pos >= n:
                self._chunk[c] = chunk
                break
            chunk = min(_MAX_CHUNK, chunk * 2)
        if prof is not None:
            prof["probe"] += perf_counter() - t0
        return pos, loads, load_hits, stores, store_hits

    # ------------------------------------------------------------------
    # Hint-coupled path (gc, gc-m): miss-only heap + deferred stores.
    # ------------------------------------------------------------------
    def _run_missheap(self, arrays) -> None:
        for A in arrays:
            A.ensure_probe()
            A.ensure_scalar_l1()
            A.ensure_times()
            A.ensure_scalar_l2()
        self._arrays = arrays
        self._pos = [0] * len(arrays)
        prof = self._prof
        if prof is None:
            self._drain_missheap(arrays)
        else:
            t0 = perf_counter()
            p0 = prof["probe"]
            self._drain_missheap(arrays)
            prof["scalar_event"] += (
                perf_counter() - t0 - (prof["probe"] - p0)
            )
        self._arrays = None

    def _drain_missheap(self, arrays) -> None:
        """Event loop whose heap carries **load misses only**.

        Stores are folded into the per-core walks
        (:meth:`_advance_fold`); their L2 effect is parked in
        per-(bank, set) buffers keyed by precomputed time and flushed —
        oldest first — just before any same-set load miss executes, and
        once more when the heap drains.  Deferral is safe because a
        popped miss holds the minimum parked time: every other core has
        already walked past (and therefore emitted) all its stores below
        that time.  Within a set this replays the oracle's exact access
        order; across sets, order is unobservable.
        """
        heap: List = []
        push = heapq.heappush
        pop = heapq.heappop
        advance = self._advance_fold
        pos_l = self._pos
        null_mgmt = self._null_mgmt
        has_choose = self._has_choose
        has_evict = self._has_evict
        has_insert = self._has_insert
        tick_interval = self._tick_interval
        tick_left = self._tick_left
        mgmt = self.mgmt
        mgmt_st = self._mgmt_st
        repl_st = self._repl_st
        l1s = self.l1
        l2 = self.l2
        vd_masks = self._vd_masks
        lru = self._lru
        insertion_rrpv = self.repl.insertion_rrpv
        max_rrpv = self.repl.max_rrpv
        fill_gate = mgmt.fill_gate_switches and not null_mgmt
        insert_skip_cold = mgmt.insert_skip_cold
        select_victim = self.repl.select_victim
        fill_decision = mgmt.fill_decision
        on_bypass = mgmt.on_bypass
        choose_victim = mgmt.choose_victim
        on_evict = mgmt.on_evict
        on_insert = mgmt.on_insert
        flush = self._flush_stores
        S2 = self.config.l2_bank_sets
        l1_reuse = self.l1_reuse
        l2_reuse = self.l2_reuse
        pending: Dict[int, list] = {}
        l1_loads = l1_load_hits = l1_stores = l1_store_hits = 0
        l1_fills = l1_bypasses = l1_evictions = 0
        l2_loads = l2_load_hits = l2_fills = 0
        l2_evictions = l2_writebacks = 0
        hints_returned = contentions = 0

        # One tuple per core / per bank bundling every hot attribute; a
        # single indexed load + unpack per event replaces ~25 attribute
        # lookups through __slots__ descriptors.  All bundled objects are
        # mutated in place, so the bindings stay valid for the whole
        # drain (`bank.tick` is a plain int and stays an attribute).
        core_cols = [
            (
                A.line_l, A.write_l, A.set1_l, A.now_l, A.part_l,
                A.local_l, A.set2_l, A.n, l1s[c], l1s[c].tag,
                l1s[c].tag_np, l1s[c].use, l1s[c].stamp, l1s[c].rrpv,
                l1s[c].valid_count, l1s[c].ways, repl_st[c], mgmt_st[c],
            )
            for c, A in enumerate(arrays)
        ]
        bank_cols = [
            (b, b.tag, b.stamp, b.use, b.dirty, b.vb, b.valid_count,
             b.ways)
            for b in l2
        ]

        for c in range(len(arrays)):
            t = advance(c, pending)
            if t is not None:
                push(heap, (t, c))
        while heap:
            now, c = pop(heap)
            (line_l, write_l, set1_l, now_l, part_l, local_l, set2_l,
             n, l1, tag, tag_np, use, stamp, rrpv, l1_vc, ways, rst,
             mst) = core_cols[c]
            p = pos_l[c]
            pos_l[c] = p + 1
            line = line_l[p]
            set_index = set1_l[p]
            base = set_index * ways
            if tick_interval:
                left = tick_left[c] - 1
                if left:
                    tick_left[c] = left
                else:
                    tick_left[c] = tick_interval
                    mgmt.on_tick_fire(mst)
            # The walk stops only at L1 load misses, so this event is one.
            l1_loads += 1
            part = part_l[p]
            bset = set2_l[p]
            (bank, btag, bstamp_l, buse, bdirty, bvb, bvc_l,
             bways) = bank_cols[part]
            buf = pending.get(part * S2 + bset)
            if buf:
                flush(bank, bset, buf, now)
            bbase = bset * bways
            l2_loads += 1
            bseg = btag[bbase : bbase + bways]
            local = local_l[p]
            if local in bseg:
                bidx = bbase + bseg.index(local)
                buse[bidx] += 1
                l2_load_hits += 1
                bank.tick += 1
                bstamp_l[bidx] = bank.tick
            else:
                vc = bvc_l[bset]
                if vc < bways:
                    bidx = bbase + vc
                    bvc_l[bset] = vc + 1
                else:
                    bstamp = bstamp_l[bbase : bbase + bways]
                    bidx = bbase + bstamp.index(min(bstamp))
                    l2_evictions += 1
                    if bdirty[bidx]:
                        l2_writebacks += 1
                    l2_reuse[buse[bidx]] += 1
                btag[bidx] = local
                bdirty[bidx] = 0
                buse[bidx] = 0
                bvb[bidx] = 0
                l2_fills += 1
                bank.tick += 1
                bstamp_l[bidx] = bank.tick
            hint = False
            if vd_masks is not None:
                mask = vd_masks[c]
                prev = bvb[bidx]
                bvb[bidx] = prev | mask
                hints_returned += 1
                if prev & mask:
                    contentions += 1
                    hint = True
            # L1 fill.
            bypass = False
            if not null_mgmt:
                if fill_gate and not hint and not mst.switches[set_index]:
                    pass  # declared no-op path: never bypasses
                else:
                    bypass = fill_decision(
                        mst, l1, set_index, line, hint, now
                    )
            if bypass:
                l1_bypasses += 1
                on_bypass(mst, l1, set_index, now)
            else:
                vc = l1_vc[set_index]
                if vc < ways:
                    way = vc
                    l1_vc[set_index] = vc + 1
                else:
                    way = (
                        choose_victim(mst, l1, set_index, now)
                        if has_choose
                        else None
                    )
                    if way is None:
                        if lru:
                            sseg = stamp[base : base + ways]
                            way = sseg.index(min(sseg))
                        else:
                            # Inline of ReplacementModel.select_victim
                            # (SRRIP): age to max, take the first line
                            # that held the pre-aging maximum.
                            rseg = rrpv[base : base + ways]
                            top_val = max(rseg)
                            if top_val < max_rrpv:
                                delta = max_rrpv - top_val
                                rrpv[base : base + ways] = [
                                    v + delta for v in rseg
                                ]
                            way = rseg.index(top_val)
                    idx = base + way
                    l1_evictions += 1
                    l1_reuse[use[idx]] += 1
                    if has_evict:
                        on_evict(mst, l1, idx, now)
                idx = base + way
                tag[idx] = line
                tag_np[idx] = line
                use[idx] = 0
                # fill_time is not maintained here: only the PDP family
                # reads it, and PDP never routes through the miss heap.
                l1_fills += 1
                if lru:
                    rst[0] += 1
                    stamp[idx] = rst[0]
                else:
                    rrpv[idx] = insertion_rrpv
                if has_insert and (hint or not insert_skip_cold):
                    on_insert(mst, l1, idx, hint, now)
            # Re-arm: walk this core inline through hits and stores to
            # its next load miss.  Runs here are short (the heap only
            # exists because the stream is miss-heavy), so the per-call
            # rebinding of a full _advance_fold would dominate; it is
            # only invoked when a run grows long enough to probe.
            p = pos_l[c]
            if p >= n:
                continue
            processed = 0
            streak = 0
            while p < n:
                line = line_l[p]
                base = set1_l[p] * ways
                seg = tag[base : base + ways]
                if line in seg:
                    idx = base + seg.index(line)
                    use[idx] += 1
                    if lru:
                        t = rst[0] + 1
                        rst[0] = t
                        stamp[idx] = t
                    else:
                        rrpv[idx] = 0
                    if write_l[p]:
                        l1_stores += 1
                        l1_store_hits += 1
                        key = part_l[p] * S2 + set2_l[p]
                        b = pending.get(key)
                        if b is None:
                            pending[key] = b = []
                        b.append((now_l[p], local_l[p]))
                    else:
                        l1_loads += 1
                        l1_load_hits += 1
                    p += 1
                    processed += 1
                    streak += 1
                    if streak >= _PROBE_THRESHOLD:
                        break
                elif write_l[p]:
                    l1_stores += 1
                    key = part_l[p] * S2 + set2_l[p]
                    b = pending.get(key)
                    if b is None:
                        pending[key] = b = []
                    b.append((now_l[p], local_l[p]))
                    p += 1
                    processed += 1
                    streak += 1
                else:
                    break
            pos_l[c] = p
            if tick_interval and processed:
                left = tick_left[c]
                if processed >= left:
                    mgmt.on_tick_fire(mgmt_st[c])
                    tick_left[c] = tick_interval - (
                        (processed - left) % tick_interval
                    )
                else:
                    tick_left[c] = left - processed
            if p < n:
                if streak >= _PROBE_THRESHOLD:
                    t = advance(c, pending)
                    if t is not None:
                        push(heap, (t, c))
                else:
                    push(heap, (now_l[p], c))
        # Stores past every stream's final load miss are still parked.
        for gkey, buf in pending.items():
            if buf:
                flush(l2[gkey // S2], gkey % S2, buf, None)

        self.l1_loads += l1_loads
        self.l1_load_hits += l1_load_hits
        self.l1_stores += l1_stores
        self.l1_store_hits += l1_store_hits
        self.l1_fills += l1_fills
        self.l1_bypasses += l1_bypasses
        self.l1_evictions += l1_evictions
        self.l2_loads += l2_loads
        self.l2_load_hits += l2_load_hits
        self.l2_fills += l2_fills
        self.l2_evictions += l2_evictions
        self.l2_writebacks += l2_writebacks
        self.hints_returned += hints_returned
        self.contentions_detected += contentions

    def _advance_fold(self, c: int, pending: Dict[int, list]) -> Optional[int]:
        """Walk core ``c`` forward through hits *and* stores.

        L1 effects apply inline; each store's L2 effect is appended to
        its (bank, set) pending buffer as ``(now, local)``.  Stops at
        the next L1 load miss and returns its precomputed time (``None``
        at end of stream).  The periodic tick counts every access walked
        here; all fires within the run collapse to one because nothing
        inside a run reads switch state (only load-miss fill decisions
        do) and neither hits nor stores re-arm switches.
        """
        A = self._arrays[c]
        pos = self._pos[c]
        n = A.n
        if pos >= n:
            return None
        l1 = self.l1[c]
        tag = l1.tag
        ways = l1.ways
        line_l = A.line_l
        write_l = A.write_l
        set1_l = A.set1_l
        now_l = A.now_l
        part_l = A.part_l
        local_l = A.local_l
        set2_l = A.set2_l
        use = l1.use
        rst = self._repl_st[c]
        lru = self._lru
        stamp = l1.stamp
        rrpv = l1.rrpv
        S2 = self.config.l2_bank_sets
        probe_fold = self._probe_fold
        start = pos
        loads = load_hits = stores = store_hits = 0
        streak = 0
        while pos < n:
            line = line_l[pos]
            w = write_l[pos]
            base = set1_l[pos] * ways
            seg = tag[base : base + ways]
            if line in seg:
                idx = base + seg.index(line)
                use[idx] += 1
                if lru:
                    t = rst[0] + 1
                    rst[0] = t
                    stamp[idx] = t
                else:
                    rrpv[idx] = 0
                if w:
                    stores += 1
                    store_hits += 1
                    key = part_l[pos] * S2 + set2_l[pos]
                    b = pending.get(key)
                    if b is None:
                        pending[key] = b = []
                    b.append((now_l[pos], local_l[pos]))
                else:
                    loads += 1
                    load_hits += 1
                pos += 1
                streak += 1
                if streak >= _PROBE_THRESHOLD:
                    spos: List[int] = []
                    pos, dl, dlh, ds, dsh = probe_fold(
                        c, A, l1, pos, n, spos
                    )
                    loads += dl
                    load_hits += dlh
                    stores += ds
                    store_hits += dsh
                    for q in spos:
                        key = part_l[q] * S2 + set2_l[q]
                        b = pending.get(key)
                        if b is None:
                            pending[key] = b = []
                        b.append((now_l[q], local_l[q]))
                    streak = 0
                continue
            if w:
                stores += 1
                key = part_l[pos] * S2 + set2_l[pos]
                b = pending.get(key)
                if b is None:
                    pending[key] = b = []
                b.append((now_l[pos], local_l[pos]))
                pos += 1
                streak += 1
                continue
            break  # load miss: park in the heap
        if self._tick_interval:
            self._count_ticks(c, pos - start)
        self._pos[c] = pos
        self.l1_loads += loads
        self.l1_load_hits += load_hits
        self.l1_stores += stores
        self.l1_store_hits += store_hits
        if pos >= n:
            return None
        return now_l[pos]

    def _flush_stores(
        self, bank: _L2Bank, bset: int, buf: list, upto: Optional[int]
    ) -> None:
        """Apply pending stores for one (bank, set), oldest first.

        ``buf`` holds ``(now, local)`` pairs (unsorted: it merges one
        sorted run per core); entries with ``now < upto`` are applied
        and removed (all of them when ``upto`` is None).  Times are
        globally unique, so the sort is total.
        """
        buf.sort()
        k = len(buf) if upto is None else bisect_left(buf, (upto,))
        if not k:
            return
        entries = buf[:k]
        del buf[:k]
        ways = bank.ways
        base = bset * ways
        tag = bank.tag
        use = bank.use
        stamp = bank.stamp
        dirty = bank.dirty
        vb = bank.vb
        vc_l = bank.valid_count
        tick = bank.tick
        l2_reuse = self.l2_reuse
        stores = store_hits = fills = evictions = writebacks = 0
        for _, local in entries:
            stores += 1
            seg = tag[base : base + ways]
            tick += 1
            if local in seg:
                i = base + seg.index(local)
                use[i] += 1
                store_hits += 1
                dirty[i] = 1
                stamp[i] = tick
            else:
                vcv = vc_l[bset]
                if vcv < ways:
                    i = base + vcv
                    vc_l[bset] = vcv + 1
                else:
                    sseg = stamp[base : base + ways]
                    i = base + sseg.index(min(sseg))
                    evictions += 1
                    if dirty[i]:
                        writebacks += 1
                    l2_reuse[use[i]] += 1
                tag[i] = local
                dirty[i] = 1
                use[i] = 0
                vb[i] = 0
                fills += 1
                stamp[i] = tick
        bank.tick = tick
        self.l2_stores += stores
        self.l2_store_hits += store_hits
        self.l2_fills += fills
        self.l2_evictions += evictions
        self.l2_writebacks += writebacks

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def result(self, benchmark: Optional[str] = None) -> ReplayResult:
        """Snapshot merged statistics as a :class:`ReplayResult`.

        Resident lines' reuse generations are finalized into the snapshot
        copy only — the engine remains usable for further kernels.
        """
        l1_reuse = Counter(self.l1_reuse)
        if self.l1:
            use = np.array([l1.use for l1 in self.l1], dtype=np.int64)
            tag = np.array([l1.tag for l1 in self.l1], dtype=np.int64)
            vals, cnts = np.unique(use[tag != -1], return_counts=True)
            for v, cnt in zip(vals.tolist(), cnts.tolist()):
                l1_reuse[v] += cnt
        l2_reuse = Counter(self.l2_reuse)
        if self.l2:
            use = np.array([b.use for b in self.l2], dtype=np.int64)
            tag = np.array([b.tag for b in self.l2], dtype=np.int64)
            vals, cnts = np.unique(use[tag != -1], return_counts=True)
            for v, cnt in zip(vals.tolist(), cnts.tolist()):
                l2_reuse[v] += cnt
        l1_stats = CacheStats(
            loads=self.l1_loads,
            stores=self.l1_stores,
            load_hits=self.l1_load_hits,
            store_hits=self.l1_store_hits,
            fills=self.l1_fills,
            bypasses=self.l1_bypasses,
            evictions=self.l1_evictions,
        )
        l1_stats.reuse._counts = l1_reuse
        l2_stats = CacheStats(
            loads=self.l2_loads,
            stores=self.l2_stores,
            load_hits=self.l2_load_hits,
            store_hits=self.l2_store_hits,
            fills=self.l2_fills,
            evictions=self.l2_evictions,
            writebacks=self.l2_writebacks,
        )
        l2_stats.reuse._counts = l2_reuse
        extras = {}
        if self._vd_masks is not None:
            extras["contentions_detected"] = self.contentions_detected
        return ReplayResult(
            benchmark=(
                benchmark
                if benchmark is not None
                else "+".join(self.kernels) or "<empty>"
            ),
            design=self.design.key,
            l1=l1_stats,
            l2=l2_stats,
            extras=extras,
        )


def prepare_core_arrays(
    trace: KernelTrace,
    config: GPUConfig,
    scheduler: str = "lrr",
    include_l2: bool = True,
    streams=None,
    addr_map: Optional[AddressMap] = None,
    now_offset: int = 0,
):
    """Coalesce ``trace`` into per-core streams and lay them out as
    :class:`~repro.sim.functional.streams.CoreArrays`.

    The one builder behind :meth:`FunctionalEngine.run` and the campaign
    runner's shared per-workload arrays, so every design replays exactly
    the columns a fresh engine would build.  With ``now_offset=0`` the
    result depends on the trace, ``config``, ``scheduler`` and
    ``include_l2`` only, and engines never change a column of it (they
    only add the lazily built ones), so one set serves any number of
    cold engines.  ``streams`` skips the coalescing step when the caller
    already holds them.
    """
    if streams is None:
        streams = build_core_streams(trace, config, scheduler)
    return build_core_arrays(
        streams,
        config,
        addr_map=addr_map,
        include_l2=include_l2,
        now_offset=now_offset,
    )


def functional_replay(
    trace: KernelTrace,
    config: Optional[GPUConfig] = None,
    design: Optional[DesignSpec] = None,
    streams=None,
    arrays=None,
    include_l2: bool = True,
    scheduler: str = "lrr",
) -> ReplayResult:
    """One-shot functional replay; mirrors :func:`repro.sim.replay.replay`."""
    engine = FunctionalEngine(
        config, design, include_l2=include_l2, scheduler=scheduler
    )
    engine.run(trace, streams=streams, arrays=arrays)
    return engine.result(benchmark=trace.name)
