"""Batched, parallel, cached microbenchmark measurement.

This package is the measurement client of the shared execution substrate:
the PALMED pipeline's benchmark demand is batched (``measure_batch``),
fanned out over worker processes and memoized across runs
(:class:`MeasurementCache`), while preserving the exact values — and thus
the exact inferred mapping — of the sequential scalar path:

* :class:`MeasurementCache` — content-keyed in-memory + on-disk JSON store;
  keys combine a kernel fingerprint with a backend fingerprint (machine
  model, noise parameters), so model or seed changes invalidate cleanly.
* :class:`ParallelDispatcher` — a thin measurement-specific client of
  :func:`repro.runtime.run_lanes` (the lane-pinned fan-out also used by
  the LPAUX solver phase and the fleet runner), adding only the backend
  semantics; ``workers <= 1`` measures in-process.
* :mod:`repro.measure.fingerprint` — canonical kernel keys and machine /
  backend content hashes.

Measurement is *not* the only parallel path: the per-instruction LPAUX
closed-form solves fan out over the very same lanes (see
``PalmedConfig.lp_parallelism`` and :mod:`repro.palmed.complete_mapping`).
See ``docs/architecture.md`` for the layering, and
``tests/test_measure_parallel.py`` for the differential guarantees.
"""

from repro.measure.cache import MeasurementCache
from repro.measure.dispatcher import ParallelDispatcher
from repro.measure.fingerprint import (
    backend_fingerprint,
    kernel_key,
    machine_fingerprint,
)

__all__ = [
    "MeasurementCache",
    "ParallelDispatcher",
    "backend_fingerprint",
    "kernel_key",
    "machine_fingerprint",
]
