"""Aggregation and output checks shared by every workload.

Host times arrive here already in reference seconds (``speed.py``);
README.md, "Aggregation", says how each metric is reduced.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Counter fields compared exactly for every simulate result.
CACHE_FIELDS = ("accesses", "loads", "stores", "hits", "mshr_merges", "fills",
                "bypasses", "evictions", "writebacks")


def median_per_label(samples: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Each label's median time across passes."""
    seen: Dict[str, List[float]] = {}
    for sample in samples:
        for label, seconds in sample.items():
            seen.setdefault(label, []).append(seconds)
    return {label: statistics.median(values) for label, values in seen.items()}


def percentile(values: Iterable[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def tail_percentile(n: int) -> Optional[int]:
    """Highest whole percentile with at least ten samples beyond it."""
    for pct in range(99, 0, -1):
        if n * (100 - pct) / 100.0 >= 10:
            return pct
    return None


def latency_summary(values: Sequence[float]) -> Dict[str, Any]:
    """p50 and tail of a latency sample, with the tail's percentile and n."""
    n = len(values)
    pct = tail_percentile(n)
    if pct is None:
        raise ValueError(f"{n} samples cannot give a tail with 10 beyond it")
    return {"p50": percentile(values, 50), "tail": percentile(values, pct),
            "tail_pct": pct, "n": n}


# ----------------------------------------------------------------------
# Exact counters, for the output check
# ----------------------------------------------------------------------
def counters_of(payload: Any) -> Dict[str, Any]:
    """The exact counters of one task payload, as plain JSON data.

    Functional results keep their cache counters only: their cycles are
    estimated, and an estimator fix is meant to change them (that change
    shows in ``verdict_agreement``).  Timing results keep every counter
    plus cycles.  A PD sweep's payload is the chosen distance.
    """
    if isinstance(payload, int):
        return {"pd": payload}
    out: Dict[str, Any] = {"instructions": payload.instructions}
    for level in ("l1", "l2"):
        stats = getattr(payload, level)
        for name in CACHE_FIELDS:
            out[f"{level}.{name}"] = getattr(stats, name)
    out["dram_requests"] = payload.dram_requests
    if payload.extras.get("fidelity") != "functional":
        out.update(cycles=payload.cycles,
                   dram_row_hit_rate=payload.dram_row_hit_rate,
                   avg_load_latency=payload.avg_load_latency)
    return out


def mismatches(got: Mapping[str, Any], want: Mapping[str, Any]) -> List[str]:
    """Labels whose counters differ (or that one side lacks)."""
    return sorted(label for label in set(got) | set(want)
                  if got.get(label) != want.get(label))


def verdict(ratio: float) -> str:
    from repro.scenarios.sweep import LOSS_THRESHOLD, WIN_THRESHOLD

    if ratio > WIN_THRESHOLD:
        return "win"
    if ratio < LOSS_THRESHOLD:
        return "loss"
    return "draw"


def agreement(pairs: Sequence[Tuple[float, float]]) -> float:
    """Share of (functional ratio, timing ratio) pairs with equal verdicts."""
    same = sum(verdict(f) == verdict(t) for f, t in pairs)
    return same / len(pairs)
