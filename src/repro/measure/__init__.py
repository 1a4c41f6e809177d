"""Batched, cached microbenchmark measurement.

The PALMED pipeline's benchmark demand is batched (``measure_batch``),
measured in-process and memoized across runs (:class:`MeasurementCache`),
while preserving the exact values — and thus the exact inferred mapping —
of the sequential scalar path:

* :class:`MeasurementCache` — content-keyed in-memory + on-disk JSON store;
  keys combine a kernel fingerprint with a backend fingerprint (machine
  model, noise parameters), so model or seed changes invalidate cleanly.
* :class:`ParallelDispatcher` — measures one batch in the calling process
  and opens one ``measure.batch`` telemetry span per batch.
* :mod:`repro.measure.fingerprint` — canonical kernel keys and machine /
  backend content hashes.

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
