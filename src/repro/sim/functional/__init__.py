"""Vectorized fast-functional replay backend.

Processes whole coalesced address streams with NumPy over set-indexed
structure-of-arrays cache state (extending :class:`FlatTagStore`'s flat
layout with a dense tag plane for bulk probes).  Counters are pinned
bit-identical to the scalar :func:`repro.sim.replay.replay` oracle by
``tests/test_functional_equivalence.py``; a calibrated linear timing
estimator (:mod:`repro.sim.functional.estimator`) supplies cycle numbers
so speedup-style figures still render in ``fidelity="functional"`` runs.
"""

from repro.sim.functional.engine import (
    FunctionalEngine,
    FunctionalUnsupportedError,
    functional_replay,
    prepare_core_arrays,
)
from repro.sim.functional.estimator import TimingEstimator
from repro.sim.functional.streams import build_core_arrays

__all__ = [
    "FunctionalEngine",
    "FunctionalUnsupportedError",
    "functional_replay",
    "TimingEstimator",
    "build_core_arrays",
    "prepare_core_arrays",
]
