"""The measurement-backend interface PALMED runs against.

Backends expose both a scalar path (:meth:`MeasurementBackend.ipc` /
:meth:`MeasurementBackend.cycles`) and a vectorized
:meth:`MeasurementBackend.measure_batch` used by the batched measurement
layer (:mod:`repro.measure`).  The batch path is *required* to return
bitwise-identical values to the scalar path — the batched runner and the
persistent cache rely on it to keep inferred mappings independent of how
the measurements were obtained.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, runtime_checkable

from repro.mapping.microkernel import Microkernel


@runtime_checkable
class MeasurementBackend(Protocol):
    """Anything able to report the steady-state behaviour of a microkernel.

    PALMED (Sec. V) only ever needs two numbers per benchmark: the elapsed
    cycles per loop iteration and the derived instructions-per-cycle rate.
    Implementations are expected to be deterministic for a given kernel so
    that the inference is reproducible, and to count how many distinct
    benchmarks they were asked to run (the paper's "generated
    microbenchmarks" statistic of Table II).

    Backends that want to participate in persistent measurement caching
    additionally expose a ``fingerprint()`` method returning a stable
    content hash of everything that influences measured values (machine
    model, noise configuration, simulation horizon, ...); see
    :func:`repro.measure.backend_fingerprint`.
    """

    def cycles(self, kernel: Microkernel) -> float:
        """Steady-state cycles per loop iteration of the kernel."""
        ...

    def ipc(self, kernel: Microkernel) -> float:
        """Steady-state instructions per cycle of the kernel."""
        ...

    def measure_batch(self, kernels: Sequence[Microkernel]) -> List[float]:
        """IPC of every kernel, in input order.

        Must be observationally identical to calling :meth:`ipc` on each
        kernel in sequence (bitwise-equal floats, same internal measurement
        accounting); implementations are free to vectorize or reorder
        internally as long as that contract holds.
        """
        ...

    @property
    def measurement_count(self) -> int:
        """Number of distinct microbenchmarks measured so far."""
        ...
