"""Functional-backend models of the L1 management policies.

Each model replicates one :class:`ManagementPolicy`'s *counter-visible*
behaviour over the engine's structure-of-arrays L1 state.  Models are
parsed from a :class:`DesignSpec` by instantiating the real policy
objects and reading their configuration, so custom specs (small shutdown
intervals, short PDP epochs) drive the functional backend exactly like
the timing one.

A model is *batchable* when L1 load hits leave its decision state
untouched (no ``on_hit``/``on_miss`` hooks): runs of consecutive load
hits can then be fast-forwarded without consulting it.  The PDP family
mutates per-set clocks and samplers on every access, so the engine's
per-core walk visits its accesses one by one and calls ``on_hit``/
``on_miss`` on each.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.policies.base import NullManagementPolicy
from repro.cache.policies.dead_block import DeadBlockPolicy
from repro.cache.policies.pdp import (
    DynamicPDPPolicy,
    ReuseDistanceSampler,
    StaticPDPPolicy,
    optimal_pd,
)
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.rrip import SRRIPPolicy
from repro.core.gcache import GCachePolicy
from repro.sim.designs import DesignSpec

__all__ = [
    "FunctionalUnsupportedError",
    "ReplacementModel",
    "MgmtModel",
    "build_models",
]


class FunctionalUnsupportedError(NotImplementedError):
    """The design uses a policy the functional backend does not model."""


# ----------------------------------------------------------------------
# Replacement
# ----------------------------------------------------------------------
class ReplacementModel:
    """LRU or SRRIP over the engine's flat stamp/rrpv lists."""

    __slots__ = ("kind", "max_rrpv", "insertion_rrpv")

    def __init__(self, kind: str, max_rrpv: int = 0, insertion_rrpv: int = 0):
        self.kind = kind
        self.max_rrpv = max_rrpv
        self.insertion_rrpv = insertion_rrpv

    def new_core(self):
        # LRU carries one monotonically increasing stamp tick per cache.
        return [0]

    def on_hit(self, st, l1, idx: int) -> None:
        if self.kind == "lru":
            st[0] += 1
            l1.stamp[idx] = st[0]
        else:
            l1.rrpv[idx] = 0

    def on_fill(self, st, l1, idx: int) -> None:
        if self.kind == "lru":
            st[0] += 1
            l1.stamp[idx] = st[0]
        else:
            l1.rrpv[idx] = self.insertion_rrpv

    def on_hit_run(self, st, l1, slots: list) -> None:
        """Apply one core's run of consecutive load hits (slot order =
        access order, so with duplicate slots the last touch wins —
        exactly the oracle's per-access stamping)."""
        if self.kind == "lru":
            tick = st[0]
            stamp = l1.stamp
            for idx in slots:
                tick += 1
                stamp[idx] = tick
            st[0] = tick
        else:
            rrpv = l1.rrpv
            for idx in slots:
                rrpv[idx] = 0

    def select_victim(self, st, l1, base: int, top: int) -> int:
        if self.kind == "lru":
            seg = l1.stamp[base:top]
            return seg.index(min(seg))
        # SRRIP: bulk-age to max (no clamping happens pre-victim), victim
        # is the first line holding the pre-aging maximum.
        rrpv = l1.rrpv
        seg = rrpv[base:top]
        top_val = max(seg)
        if top_val < self.max_rrpv:
            delta = self.max_rrpv - top_val
            rrpv[base:top] = [v + delta for v in seg]
        return seg.index(top_val)


# ----------------------------------------------------------------------
# Management
# ----------------------------------------------------------------------
class MgmtModel:
    """Base (null) management model: always insert, no hooks."""

    batchable = True
    #: L1 accesses between periodic callbacks (0 = none); the engine owns
    #: the countdown and calls :meth:`on_tick_fire`.
    tick_interval = 0
    #: Declares that ``fill_decision(st, ..., hint=False, ...)`` returns
    #: False with **no side effects** whenever
    #: ``st.switches[set_index] == 0`` — the engine's miss heap then
    #: skips the Python call on that (overwhelmingly common) path.
    fill_gate_switches = False
    #: Declares that ``on_insert`` with ``hint=False`` is a no-op, so
    #: the engine can skip the call for ordinary fills.
    insert_skip_cold = False

    def new_core(self, num_sets: int, ways: int):
        return None

    def on_tick_fire(self, st) -> None:  # pragma: no cover - no-tick models
        pass

    # Scalar hooks (mirror ManagementPolicy's call points).
    def on_hit(self, st, l1, set_index: int, idx: int, line: int, now: int):
        pass

    def on_miss(self, st, l1, set_index: int, now: int) -> None:
        pass

    def fill_decision(
        self, st, l1, set_index: int, line: int, hint: bool, now: int
    ) -> bool:
        """Return True to bypass the fill."""
        return False

    def on_bypass(self, st, l1, set_index: int, now: int) -> None:
        pass

    def choose_victim(self, st, l1, set_index: int, now: int) -> Optional[int]:
        return None

    def on_insert(self, st, l1, idx: int, hint: bool, now: int) -> None:
        pass

    def on_evict(self, st, l1, idx: int, now: int) -> None:
        pass


class _GCacheState:
    __slots__ = (
        "switches",
        "bypass_counters",
        "m",
        "epoch_fills",
        "epoch_hints",
        "epoch_bypasses",
    )

    def __init__(self, num_sets: int, initial_m: int) -> None:
        self.switches = bytearray(num_sets)
        self.bypass_counters = [0] * num_sets
        self.m = initial_m
        self.epoch_fills = 0
        self.epoch_hints = 0
        self.epoch_bypasses = 0


class GCacheModel(MgmtModel):
    """G-Cache bypass/insertion over flat RRPV lists (gc / gc-m)."""

    batchable = True

    def __init__(self, policy: GCachePolicy, max_rrpv: int) -> None:
        cfg = policy.config
        th_hot = cfg.th_hot if cfg.th_hot is not None else max_rrpv
        if th_hot > max_rrpv:
            raise ValueError(
                f"th_hot={th_hot} exceeds the replacement policy's "
                f"max RRPV {max_rrpv}"
            )
        self.th_hot = th_hot
        self.th_hot_victim = (
            min(cfg.th_hot_victim, th_hot)
            if cfg.th_hot_victim is not None
            else max(1, th_hot - 1)
        )
        self.hot_insert_rrpv = cfg.hot_insert_rrpv
        self.cold_insert_rrpv = cfg.cold_insert_rrpv
        self.tick_interval = cfg.shutdown_interval
        self.adaptive_aging = cfg.adaptive_aging
        self.initial_m = cfg.initial_m
        self.max_m = cfg.max_m
        self.aging_epoch = cfg.aging_epoch
        self.max_rrpv = max_rrpv
        # Fixed-M fill_decision with hint=False touches no state before
        # the switch test; the adaptive variant counts every fill.
        self.fill_gate_switches = not cfg.adaptive_aging
        self.insert_skip_cold = cfg.cold_insert_rrpv is None

    def new_core(self, num_sets: int, ways: int):
        return _GCacheState(num_sets, self.initial_m)

    def on_tick_fire(self, st) -> None:
        st.switches[:] = bytes(len(st.switches))

    def fill_decision(self, st, l1, set_index, line, hint, now) -> bool:
        # The epoch rates are only ever read by the adaptive-aging
        # update, so the fixed-M variant skips that accounting.
        if self.adaptive_aging:
            st.epoch_fills += 1
            if hint:
                st.epoch_hints += 1
                st.switches[set_index] = 1
            if st.epoch_fills >= self.aging_epoch:
                hint_rate = st.epoch_hints / st.epoch_fills
                bypass_rate = st.epoch_bypasses / st.epoch_fills
                if hint_rate > 0.25 and bypass_rate > 0.25:
                    st.m = min(self.max_m, st.m * 2)
                else:
                    st.m = max(1, st.m // 2)
                st.epoch_fills = 0
                st.epoch_hints = 0
                st.epoch_bypasses = 0
        elif hint:
            st.switches[set_index] = 1
        if not st.switches[set_index]:
            return False
        ways = l1.ways
        if l1.valid_count[set_index] < ways:
            return False
        threshold = self.th_hot_victim if hint else self.th_hot
        base = set_index * ways
        return max(l1.rrpv[base : base + ways]) < threshold

    def on_bypass(self, st, l1, set_index, now) -> None:
        if self.adaptive_aging:
            st.epoch_bypasses += 1
        st.bypass_counters[set_index] += 1
        if st.bypass_counters[set_index] < st.m:
            return
        st.bypass_counters[set_index] = 0
        # Bypass implies the set is full (all-hot test), so every slot is
        # valid: age the whole segment, saturating at max.
        max_rrpv = self.max_rrpv
        rrpv = l1.rrpv
        base = set_index * l1.ways
        top = base + l1.ways
        rrpv[base:top] = [
            v + 1 if v < max_rrpv else v for v in rrpv[base:top]
        ]

    def on_insert(self, st, l1, idx, hint, now) -> None:
        if hint:
            l1.rrpv[idx] = self.hot_insert_rrpv
        elif self.cold_insert_rrpv is not None:
            l1.rrpv[idx] = self.cold_insert_rrpv


class DeadBlockModel(MgmtModel):
    """Counter-based dead-block bypass (dbp)."""

    batchable = True

    def __init__(self, policy: DeadBlockPolicy) -> None:
        self.table_size = policy.table_size
        self.region_shift = policy.region_shift
        self.confidence = policy.confidence
        self.table_mask = policy.table_size - 1

    def new_core(self, num_sets: int, ways: int):
        return {}  # region index -> (predicted reuses, dead streak)

    def _index(self, line: int) -> int:
        # Kept as the hash's one readable definition; the hooks below
        # inline it (they run once per L1 miss, several probes each).
        region = line >> self.region_shift
        return (region ^ (region >> 7)) & self.table_mask

    def fill_decision(self, st, l1, set_index, line, hint, now) -> bool:
        region = line >> self.region_shift
        predicted, streak = st.get(
            (region ^ (region >> 7)) & self.table_mask, (1, 0)
        )
        return predicted == 0 and streak >= self.confidence

    def choose_victim(self, st, l1, set_index, now) -> Optional[int]:
        base = set_index * l1.ways
        tag = l1.tag
        use = l1.use
        shift = self.region_shift
        mask = self.table_mask
        get = st.get
        for way in range(l1.ways):
            region = tag[base + way] >> shift
            predicted, _ = get((region ^ (region >> 7)) & mask, (1, 0))
            if use[base + way] >= predicted > 0:
                return way
        return None

    def on_evict(self, st, l1, idx, now) -> None:
        region = l1.tag[idx] >> self.region_shift
        table_idx = (region ^ (region >> 7)) & self.table_mask
        _, streak = st.get(table_idx, (1, 0))
        use = l1.use[idx]
        st[table_idx] = (0, streak + 1) if use == 0 else (use, 0)


class _PDPState:
    __slots__ = (
        "ticks",
        "pd",
        "step",
        "initial_pdc",
        "sampler",
        "since_epoch",
    )

    def __init__(self, num_sets: int, sampler: Optional[ReuseDistanceSampler]):
        self.ticks = [0] * num_sets
        self.pd = 0
        self.step = 1
        self.initial_pdc = 0
        self.sampler = sampler
        self.since_epoch = 0


class PDPModel(MgmtModel):
    """Static/dynamic PDP (pdp-3, pdp-8, spdp-b).

    Not batchable: every access ticks the set clock (possibly decrementing
    the whole set's protection counters) and the dynamic variant feeds the
    reuse-distance sampler on hits.
    """

    batchable = False

    def __init__(self, policy: StaticPDPPolicy) -> None:
        self.counter_max = policy.counter_max
        self.bypass = policy.bypass
        self.dynamic = isinstance(policy, DynamicPDPPolicy)
        if self.dynamic:
            self.initial_pd = policy.pd
            self.fifo_depth = policy.fifo_depth
            self.rdd_size = policy.rdd_size
            self.epoch_accesses = policy.epoch_accesses
            self.max_pd = policy.max_pd
        else:
            self.initial_pd = policy.pd

    def new_core(self, num_sets: int, ways: int):
        sampler = None
        if self.dynamic:
            sampler = ReuseDistanceSampler(
                num_sets=num_sets,
                fifo_depth=self.fifo_depth,
                rdd_size=self.rdd_size,
            )
        st = _PDPState(num_sets, sampler)
        self._set_pd(st, self.initial_pd)
        return st

    def _set_pd(self, st: _PDPState, pd: int) -> None:
        st.pd = pd
        st.step = max(1, -(-pd // self.counter_max))
        st.initial_pdc = min(self.counter_max, -(-pd // st.step))

    def _tick_set(self, st: _PDPState, l1, set_index: int) -> None:
        st.ticks[set_index] += 1
        if st.ticks[set_index] % st.step != 0:
            return
        tag = l1.tag
        pd = l1.pd
        base = set_index * l1.ways
        for i in range(base, base + l1.ways):
            if tag[i] != -1 and pd[i] > 0:
                pd[i] -= 1

    def _observe(self, st: _PDPState, set_index: int, line: int) -> None:
        st.sampler.observe(set_index, line)
        st.since_epoch += 1
        if st.since_epoch >= self.epoch_accesses:
            st.since_epoch = 0
            new_pd = optimal_pd(st.sampler.rdd, st.sampler.total, self.max_pd)
            st.sampler.decay()
            self._set_pd(st, new_pd)

    def on_hit(self, st, l1, set_index, idx, line, now) -> None:
        if self.dynamic:
            self._observe(st, set_index, line)
        self._tick_set(st, l1, set_index)
        l1.pd[idx] = st.initial_pdc

    def on_miss(self, st, l1, set_index, now) -> None:
        self._tick_set(st, l1, set_index)

    def _unprotected_way(self, st, l1, set_index: int) -> Optional[int]:
        base = set_index * l1.ways
        tag = l1.tag
        pd = l1.pd
        fill_time = l1.fill_time
        best = None
        best_ft = None
        for way in range(l1.ways):
            i = base + way
            if tag[i] == -1:
                return way
            if pd[i] == 0 and (best is None or fill_time[i] < best_ft):
                best = way
                best_ft = fill_time[i]
        return best

    def fill_decision(self, st, l1, set_index, line, hint, now) -> bool:
        if self.dynamic:
            self._observe(st, set_index, line)
        if not self.bypass:
            return False
        return self._unprotected_way(st, l1, set_index) is None

    def choose_victim(self, st, l1, set_index, now) -> Optional[int]:
        way = self._unprotected_way(st, l1, set_index)
        if way is not None:
            return way
        # Reachable only with bypass disabled: evict the smallest PDC.
        base = set_index * l1.ways
        return min(range(l1.ways), key=lambda w: l1.pd[base + w])

    def on_insert(self, st, l1, idx, hint, now) -> None:
        l1.pd[idx] = st.initial_pdc


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def build_models(design: DesignSpec) -> tuple:
    """Derive (ReplacementModel, MgmtModel) from a design's factories."""
    repl = design.make_l1_replacement()
    if type(repl) is LRUPolicy:
        repl_model = ReplacementModel("lru")
    elif type(repl) is SRRIPPolicy:
        repl_model = ReplacementModel(
            "srrip", max_rrpv=repl.max_rrpv, insertion_rrpv=repl.insertion_rrpv
        )
    else:
        raise FunctionalUnsupportedError(
            f"functional backend does not model replacement policy "
            f"{type(repl).__name__} (design {design.key!r})"
        )

    mgmt = design.make_l1_mgmt()
    if isinstance(mgmt, NullManagementPolicy):
        mgmt_model: MgmtModel = MgmtModel()
    elif isinstance(mgmt, GCachePolicy):
        if repl_model.kind != "srrip":
            raise FunctionalUnsupportedError(
                "G-Cache requires an RRIP-family replacement policy"
            )
        mgmt_model = GCacheModel(mgmt, repl_model.max_rrpv)
    elif isinstance(mgmt, DeadBlockPolicy):
        mgmt_model = DeadBlockModel(mgmt)
    elif isinstance(mgmt, StaticPDPPolicy):
        # DynamicPDPPolicy subclasses StaticPDPPolicy; PDPModel handles both.
        mgmt_model = PDPModel(mgmt)
    else:
        raise FunctionalUnsupportedError(
            f"functional backend does not model management policy "
            f"{type(mgmt).__name__} (design {design.key!r})"
        )
    return repl_model, mgmt_model
