"""Parallel fan-out of microbenchmark measurements.

On real hardware, microbenchmarks for one machine can be distributed over
identical cores (or identical machines) because every measurement is
independent; the paper's quadratic benchmarking stage is embarrassingly
parallel.  :class:`ParallelDispatcher` reproduces that execution model on
:func:`repro.runtime.run_lanes`, the lane-pinned fan-out fleet runs also
use: a batch of kernels is split into one contiguous chunk per lane,
each lane process measures its chunk on its own copy of the backend,
and the results are reassembled **in input order**, so the
caller observes exactly the sequence of values a sequential run would
have produced.  This module only contributes the measurement semantics:
how a chunk of kernels is turned into IPC values on a backend, and which
backend errors mean "unmeasurable kernel".

Determinism contract
--------------------
All bundled backends are deterministic functions of the kernel, so a lane
process computes bitwise-identical values to the parent; chunk reassembly
is by index, never by completion order.  ``workers <= 1`` measures the
whole batch in-process — the differential test suite checks that every
worker count yields identical results.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.mapping.microkernel import Microkernel
from repro.runtime import run_lanes, split_chunks
from repro.telemetry import TRACER


def _backend_measure(backend, kernels: Sequence[Microkernel]) -> List[float]:
    """Measure a batch on a backend, tolerating scalar-only implementations."""
    batch = getattr(backend, "measure_batch", None)
    if batch is not None:
        return list(batch(kernels))
    return [backend.ipc(kernel) for kernel in kernels]


def _safe_ipc(backend, kernel: Microkernel) -> Optional[float]:
    """IPC of one kernel, ``None`` when the backend cannot measure it."""
    try:
        return backend.ipc(kernel)
    except KeyError:
        return None


def _measure_chunk_safe(
    backend, kernels: List[Microkernel]
) -> List[Optional[float]]:
    return [_safe_ipc(backend, kernel) for kernel in kernels]


class ParallelDispatcher:
    """Deterministically-ordered (optionally parallel) batch measurement.

    ``workers`` lane processes each measure one contiguous chunk of a
    batch; the backend is their shared context, pickled once per lane, not
    once per kernel.  ``0`` or ``1`` measures in-process.
    """

    def __init__(self, workers: int = 0) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers

    # -- public API ----------------------------------------------------------
    def measure(self, backend, kernels: Sequence[Microkernel]) -> List[float]:
        """IPC of every kernel, in input order.

        Exceptions raised by the backend (e.g. an unknown instruction)
        propagate to the caller, as in the sequential path.
        """
        return self._dispatch(_backend_measure, backend, kernels)

    def measure_safe(
        self, backend, kernels: Sequence[Microkernel]
    ) -> List[Optional[float]]:
        """Like :meth:`measure`, but unmeasurable kernels yield ``None``.

        Only ``KeyError`` (an instruction the backend does not implement) is
        converted to ``None``, mirroring the evaluation harness's historical
        skip semantics; other errors propagate.
        """
        return self._dispatch(_measure_chunk_safe, backend, kernels, safe=True)

    # -- internals -----------------------------------------------------------
    def _dispatch(
        self, func: Callable, backend, kernels: Sequence[Microkernel], **span
    ) -> List:
        kernels = list(kernels)
        chunks = split_chunks(kernels, self.workers)
        with TRACER.span(
            "measure.batch", kernels=len(kernels), workers=self.workers, **span
        ):
            results = run_lanes(
                func, chunks, backend, self.workers, name="measure-lane"
            )
        return [value for chunk in results for value in chunk]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelDispatcher(workers={self.workers})"
