"""In-process batch measurement.

On real hardware one microbenchmark costs milliseconds to seconds, and a
batch can be spread over identical cores.  Every backend here answers in
microseconds, so a batch is measured in the calling process, in input
order: starting and feeding worker processes would cost more than the
measurements.  :class:`ParallelDispatcher` keeps its name (and its two
methods) because the perfbench layer probe patches them to count measured
kernels and busy time; once that probe reads the program's own spans
instead, the class folds into its two callers,
:meth:`BenchmarkRunner.ipc_batch
<repro.palmed.benchmarks.BenchmarkRunner.ipc_batch>` and the evaluation
harness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.mapping.microkernel import Microkernel
from repro.telemetry import TRACER


def _safe_ipc(backend, kernel: Microkernel) -> Optional[float]:
    """IPC of one kernel, ``None`` when the backend cannot measure it."""
    try:
        return backend.ipc(kernel)
    except KeyError:
        return None


class ParallelDispatcher:
    """Batch measurement in the calling process, one ``measure.batch`` span each."""

    def measure(self, backend, kernels: Sequence[Microkernel]) -> List[float]:
        """IPC of every kernel, in input order.

        Exceptions raised by the backend (e.g. an unknown instruction)
        propagate to the caller.
        """
        kernels = list(kernels)
        with TRACER.span("measure.batch", kernels=len(kernels)):
            return list(backend.measure_batch(kernels))

    def measure_safe(
        self, backend, kernels: Sequence[Microkernel]
    ) -> List[Optional[float]]:
        """Like :meth:`measure`, but unmeasurable kernels yield ``None``.

        Only ``KeyError`` (an instruction the backend does not implement) is
        converted to ``None``, mirroring the evaluation harness's historical
        skip semantics; other errors propagate.
        """
        kernels = list(kernels)
        with TRACER.span("measure.batch", kernels=len(kernels), safe=True):
            return [_safe_ipc(backend, kernel) for kernel in kernels]
