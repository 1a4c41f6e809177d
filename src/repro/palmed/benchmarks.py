"""Microbenchmark construction and measurement bookkeeping.

The paper's microbenchmark generator emits unrolled assembly loops; here a
"benchmark" is simply a :class:`Microkernel` handed to the measurement
backend.  This module centralizes the kernel shapes PALMED uses —

* ``a``                      (single-instruction kernels),
* ``a^IPC(a) b^IPC(b)``      (the *quadratic* pair benchmarks),
* ``a^M b``                  (the anti-degeneracy seed of LP1),
* ``i^IPC(i) · sat[r]^L``    (the saturating benchmarks of LPAUX),

— as well as the coefficient quantization of Sec. VI-A (multiplicities are
rounded so that they differ by at most ε from the ideal values) and a
:class:`BenchmarkRunner` that memoizes measurements and counts how many
distinct benchmarks were executed.

The runner is also the integration point of the batched measurement layer
(:mod:`repro.measure`): :meth:`BenchmarkRunner.ipc_batch` deduplicates a
batch of kernels, serves what it can from the persistent
:class:`~repro.measure.MeasurementCache`, and measures the rest in one
batch on the backend.  The scalar
:meth:`BenchmarkRunner.ipc` is a batch of size one, so both paths yield
bitwise-identical values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.isa.instruction import Extension, Instruction
from repro.mapping.microkernel import Microkernel
from repro.measure import MeasurementCache, ParallelDispatcher, backend_fingerprint
from repro.palmed.config import PalmedConfig
from repro.simulator.backend import MeasurementBackend


def quantize_multiplicity(value: float, epsilon: float = 0.05, max_denominator: int = 64) -> float:
    """Round a multiplicity to a small rational within relative tolerance ε.

    The paper rounds benchmark coefficients so that the number of repetitions
    of an instruction differs by at most 5 % from what the algorithm asks
    for (e.g. ``a^0.06 b^1`` becomes ``a^1 b^20`` after scaling).  For the
    purposes of kernel construction it is enough to snap each multiplicity to
    the closest small rational within the tolerance.
    """
    if value <= 0:
        raise ValueError("multiplicity must be positive")
    best = Fraction(value).limit_denominator(max_denominator)
    quantized = float(best)
    if quantized <= 0:
        quantized = 1.0 / max_denominator
    if abs(quantized - value) > epsilon * value:
        # The rational approximation failed the tolerance (possible for very
        # small values with a bounded denominator); fall back to the raw value.
        return value
    return quantized


def quantize_kernel(kernel: Microkernel, epsilon: float = 0.05) -> Microkernel:
    """Quantize every multiplicity of a kernel (see :func:`quantize_multiplicity`)."""
    return Microkernel(
        {
            instruction: quantize_multiplicity(count, epsilon)
            for instruction, count in kernel.items()
        }
    )


def mixes_vector_extensions(a: Instruction, b: Instruction) -> bool:
    """True when a kernel mixing ``a`` and ``b`` would mix SSE and AVX.

    The paper forbids such benchmarks because transitioning between vector
    widths introduces dependencies that violate the throughput model.
    """
    extensions = {a.extension, b.extension}
    return Extension.SSE in extensions and Extension.AVX in extensions


class BenchmarkRunner:
    """Measurement front-end used by every stage of the pipeline.

    Wraps a :class:`MeasurementBackend`, optionally quantizes kernel
    coefficients before measuring (mirroring the paper's generator
    limitations), and memoizes results.

    Parameters
    ----------
    backend:
        The measurement backend ("the hardware").
    config:
        Pipeline parameters; ``config.cache_path`` names the persistent
        measurement cache shared across runs (``None``: no persistence).
    """

    def __init__(
        self,
        backend: MeasurementBackend,
        config: Optional[PalmedConfig] = None,
    ) -> None:
        self.backend = backend
        self.config = config if config is not None else PalmedConfig()
        cache_path = self.config.cache_path
        self.cache = MeasurementCache(cache_path) if cache_path is not None else None
        self._fingerprint = (
            backend_fingerprint(backend) if cache_path is not None else None
        )
        self._ipc_cache: Dict[Microkernel, float] = {}
        #: IPC keyed by the kernel actually handed to the backend
        #: (post-quantization); several requested kernels may share one.
        self._measured_ipc: Dict[Microkernel, float] = {}
        self._num_measured = 0
        self._num_cache_served = 0

    # -- measurements -------------------------------------------------------
    def ipc(self, kernel: Microkernel) -> float:
        """Measured IPC of a kernel (quantized if the configuration asks for it)."""
        cached = self._ipc_cache.get(kernel)
        if cached is not None:
            return cached
        return self.ipc_batch([kernel])[0]

    def ipc_batch(self, kernels: Sequence[Microkernel]) -> List[float]:
        """Measured IPC of every kernel, in input order.

        The batch is deduplicated, served from the runner's memo and the
        persistent cache where possible, and the remaining kernels are
        measured in one dispatcher call.  Values are bitwise identical to
        the scalar :meth:`ipc` path regardless of batching or cache state.
        """
        kernels = list(kernels)
        to_measure: List[Microkernel] = []
        queued = set()
        for kernel in kernels:
            if kernel in self._ipc_cache:
                continue
            measured_kernel = self._quantized(kernel)
            if measured_kernel in self._measured_ipc or measured_kernel in queued:
                continue
            if self.cache is not None and self._fingerprint is not None:
                value = self.cache.lookup(self._fingerprint, measured_kernel)
                if value is not None:
                    self._measured_ipc[measured_kernel] = value
                    self._num_cache_served += 1
                    continue
            queued.add(measured_kernel)
            to_measure.append(measured_kernel)

        if to_measure:
            values = ParallelDispatcher().measure(self.backend, to_measure)
            for measured_kernel, value in zip(to_measure, values):
                self._measured_ipc[measured_kernel] = value
                self._num_measured += 1
                if self.cache is not None and self._fingerprint is not None:
                    self.cache.store(self._fingerprint, measured_kernel, value)

        results: List[float] = []
        for kernel in kernels:
            value = self._ipc_cache.get(kernel)
            if value is None:
                value = self._measured_ipc[self._quantized(kernel)]
                self._ipc_cache[kernel] = value
            results.append(value)
        return results

    def _quantized(self, kernel: Microkernel) -> Microkernel:
        """The kernel actually handed to the backend for measurement."""
        if self.config.quantize_coefficients:
            return quantize_kernel(kernel, self.config.epsilon)
        return kernel

    def cycles(self, kernel: Microkernel) -> float:
        """Measured cycles per loop iteration of a kernel."""
        return kernel.size / self.ipc(kernel)

    def ipc_single(self, instruction: Instruction) -> float:
        """Measured standalone IPC of one instruction (``a`` in the paper)."""
        return self.ipc(Microkernel.single(instruction))

    def prefetch(self, kernels: Iterable[Microkernel]) -> None:
        """Warm the runner's memo for a set of kernels in one batch.

        Used by the pipeline stages to front-load their measurement demand
        as one measured batch before entering code that consumes
        measurements one at a time.
        """
        self.ipc_batch(list(kernels))

    def preload(self, measurements: Mapping[Microkernel, float]) -> None:
        """Warm the memo with already-known measurements, without counting.

        Used by the stage-graph executor (:mod:`repro.pipeline`) when a stage
        is served from a checkpoint: the measurements that stage consumed on
        its original run are replayed into the memo so later *live* stages
        observe exactly the memo state a cold run would have left behind —
        same values, and the same "distinct benchmarks" accounting (a kernel
        replayed here was already counted by the stage that measured it, and
        is not counted again).
        """
        for kernel, value in measurements.items():
            self._ipc_cache.setdefault(kernel, float(value))
            self._measured_ipc.setdefault(self._quantized(kernel), float(value))

    @property
    def num_benchmarks(self) -> int:
        """Number of distinct microbenchmarks this runner asked for.

        Counts kernels actually measured this run plus kernels served from
        the persistent cache (both correspond to generated microbenchmarks
        in the paper's Table II accounting).
        """
        return self._num_measured + self._num_cache_served

    @property
    def num_benchmarks_measured(self) -> int:
        """Distinct kernels measured on the backend during this run."""
        return self._num_measured

    @property
    def num_benchmarks_cached(self) -> int:
        """Distinct kernels served from the persistent cache this run."""
        return self._num_cache_served

    def flush_cache(self) -> None:
        """Persist the measurement cache to disk (no-op when not configured)."""
        if self.cache is not None:
            self.cache.save()

    # -- kernel shapes --------------------------------------------------------
    def pair_kernel(self, a: Instruction, b: Instruction) -> Microkernel:
        """The quadratic benchmark ``a^IPC(a) b^IPC(b)`` (written ``aabb``)."""
        if a == b:
            raise ValueError("pair kernels need two distinct instructions")
        return Microkernel(
            {a: max(self.ipc_single(a), self.config.min_ipc),
             b: max(self.ipc_single(b), self.config.min_ipc)}
        )

    def repeated_pair_kernel(self, a: Instruction, b: Instruction) -> Microkernel:
        """The ``a^M b`` benchmark used to stop LP1 from degenerate merges."""
        return Microkernel({a: float(self.config.m_repeat), b: 1.0})

    def saturating_benchmark(
        self, instruction: Instruction, saturating_kernel: Microkernel
    ) -> Microkernel:
        """``Ksat(i, r) = i^IPC(i) · sat[r]^L`` (Sec. V-C).

        The saturating kernel is scaled by ``L`` so that the resource it
        saturates stays the bottleneck even with the extra instruction mixed
        in, which is what lets LPAUX read off ``ρ_{i,r}``.
        """
        own = Microkernel.single(
            instruction, max(self.ipc_single(instruction), self.config.min_ipc)
        )
        return own + saturating_kernel.scaled(float(self.config.l_repeat))
