"""Steady-state throughput backends over a ground-truth machine model."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.machines.machine import Machine
from repro.mapping.microkernel import Microkernel
from repro.simulator.noise import MeasurementNoise


class PortModelBackend:
    """The default "hardware": steady-state port-model throughput.

    The backend evaluates the machine's ground-truth dual conjunctive
    mapping (built once, including the front-end resource), which by
    Theorem A.2 gives the same steady-state cycle count as optimally
    scheduling µOPs onto ports.  Results are cached per kernel; the number
    of cache misses is the number of microbenchmarks "run", reported by
    :attr:`measurement_count` and used for the Table II statistics.

    Parameters
    ----------
    machine:
        The ground-truth machine model.
    noise:
        Optional measurement-noise model (disabled by default so unit tests
        are exact).
    include_front_end:
        Whether the decode-width bottleneck is part of the measurement.
        True for the "hardware"; the uops.info-like baseline predictor uses
        False to reproduce that tool's port-only view.
    """

    def __init__(
        self,
        machine: Machine,
        noise: Optional[MeasurementNoise] = None,
        include_front_end: bool = True,
    ) -> None:
        self.machine = machine
        self.noise = noise if noise is not None else MeasurementNoise()
        self.include_front_end = include_front_end
        self._mapping = machine.true_conjunctive(include_front_end=include_front_end)
        self._cache: Dict[Microkernel, float] = {}

    # -- MeasurementBackend interface ---------------------------------------
    def cycles(self, kernel: Microkernel) -> float:
        """Measured steady-state cycles per loop iteration."""
        cached = self._cache.get(kernel)
        if cached is not None:
            return cached
        true_cycles = self._mapping.cycles(kernel)
        measured = self.noise.apply(kernel, true_cycles)
        self._cache[kernel] = measured
        return measured

    def ipc(self, kernel: Microkernel) -> float:
        """Measured steady-state instructions per cycle."""
        return kernel.size / self.cycles(kernel)

    def measure_batch(self, kernels: Sequence[Microkernel]) -> List[float]:
        """IPC of every kernel, in input order (bitwise equal to :meth:`ipc`)."""
        return [self.ipc(kernel) for kernel in kernels]

    @property
    def measurement_count(self) -> int:
        return len(self._cache)

    def reset_counter(self) -> None:
        """Forget every cached measurement (and the benchmark count)."""
        self._cache.clear()

    def fingerprint(self) -> str:
        """Content hash for persistent caching (machine + noise + view)."""
        from repro.measure.fingerprint import combine_fingerprint, machine_fingerprint

        return combine_fingerprint(
            type(self).__name__,
            machine_fingerprint(self.machine),
            self.include_front_end,
            repr(self.noise.relative_stddev),
            repr(self.noise.quantization),
            self.noise.seed,
        )


class LpReferenceBackend:
    """Reference backend solving the disjunctive port-assignment LP directly.

    Slower than :class:`PortModelBackend` (one LP per kernel) but independent
    of the dual construction; the test suite uses it to validate the
    equivalence theorem on every machine model.
    """

    def __init__(self, machine: Machine, include_front_end: bool = True) -> None:
        self.machine = machine
        self.include_front_end = include_front_end
        self._cache: Dict[Microkernel, float] = {}

    def cycles(self, kernel: Microkernel) -> float:
        cached = self._cache.get(kernel)
        if cached is not None:
            return cached
        port_cycles = self.machine.port_mapping.cycles(kernel)
        if self.include_front_end:
            port_cycles = max(port_cycles, kernel.size / self.machine.front_end_width)
        self._cache[kernel] = port_cycles
        return port_cycles

    def ipc(self, kernel: Microkernel) -> float:
        return kernel.size / self.cycles(kernel)

    def measure_batch(self, kernels: Sequence[Microkernel]) -> List[float]:
        """IPC of every kernel, in input order (bitwise equal to :meth:`ipc`)."""
        return [self.ipc(kernel) for kernel in kernels]

    @property
    def measurement_count(self) -> int:
        return len(self._cache)

    def fingerprint(self) -> str:
        """Content hash for persistent caching (machine + front-end view)."""
        from repro.measure.fingerprint import combine_fingerprint, machine_fingerprint

        return combine_fingerprint(
            type(self).__name__,
            machine_fingerprint(self.machine),
            self.include_front_end,
        )
