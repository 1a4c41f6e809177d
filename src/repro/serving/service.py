"""The in-process prediction service: the facade over batcher + router.

:class:`PredictionService` is what both frontends (the JSON-line protocol
of :mod:`repro.serving.frontend` and any in-process consumer, e.g. the
evaluation harness via :class:`ServicePredictor`) talk to:

* requests are addressed by **machine fingerprint** (the registry key);
  the service routes each to its machine's micro-batching lane, where it
  coalesces with concurrent requests into one vectorized evaluation;
* kernels are pre-lowered through a bounded LRU cache at submission time,
  so a hot block's per-request Python cost is one dict lookup;
* **admission control** bounds the outstanding work per lane: beyond
  ``max_pending`` kernels, submissions raise a typed
  :class:`~repro.serving.errors.ServiceOverloadedError` instead of growing
  the queue without bound — the same refusal philosophy as the artifact
  registry, and never a silent drop;
* every response is **bitwise-identical** to a serial per-request scalar
  evaluation of the same kernel against the same mapping, whatever the
  interleaving (the engine contract; ``tests/test_serving.py`` pins it
  down differentially under concurrency).

The service opens its registry **read-only**: a serving node must never
mutate the artifacts it serves, and concurrent characterization runs can
safely write new artifacts next to the ones being served (saves are
atomic renames; see :class:`~repro.artifacts.ArtifactRegistry`).
"""

from __future__ import annotations

from concurrent.futures import Future
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.artifacts import ArtifactRegistry
from repro.isa.instruction import Instruction
from repro.mapping.microkernel import Microkernel
from repro.predictors.base import Prediction
from repro.predictors.batch import LoweredBatch
from repro.serving.cache import CompiledMapping, KernelLoweringCache
from repro.serving.errors import InvalidRequestError
from repro.serving.router import MachineRouter
from repro.serving.stats import ServingStats
from repro.telemetry import TRACER


class PredictionService:
    """Micro-batched, multi-machine, admission-controlled prediction serving.

    Parameters
    ----------
    registry:
        Artifact registry directory (or an :class:`ArtifactRegistry`).  A
        path is opened read-only; pass a registry instance to override.
    max_batch_size:
        Kernel cap per coalesced batch (per machine lane).
    max_wait_s:
        How long a lane lingers for stragglers once the queue drained
        (``0``: flush as soon as the queue is empty — concurrency alone
        forms the batches).
    max_pending:
        Admission bound: maximum outstanding kernels per lane; ``None``
        disables admission control.
    mapping_cache_capacity:
        How many compiled machine mappings stay resident (LRU beyond).
    lowering_cache_capacity:
        How many per-kernel lowerings stay resident (LRU beyond).

    Examples
    --------
    Serve two requests that may coalesce into one vectorized batch::

        with PredictionService("artifacts/") as service:
            fp = service.resolve("toy")
            a = service.submit(fp, kernel_a)
            b = service.submit(fp, kernel_b)
            print(a.result().ipc, b.result().ipc)
    """

    def __init__(
        self,
        registry: Union[str, Path, ArtifactRegistry],
        max_batch_size: int = 512,
        max_wait_s: float = 0.0,
        max_pending: Optional[int] = 4096,
        mapping_cache_capacity: int = 8,
        lowering_cache_capacity: int = 65536,
    ) -> None:
        if not isinstance(registry, ArtifactRegistry):
            registry = ArtifactRegistry(registry, readonly=True)
        self.registry = registry
        self.stats = ServingStats()
        self.router = MachineRouter(
            registry,
            stats=self.stats,
            cache_capacity=mapping_cache_capacity,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            max_pending=max_pending,
        )
        self._lowerings = KernelLoweringCache(
            capacity=lowering_cache_capacity, stats=self.stats
        )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "PredictionService":
        """Start the lane scheduler threads (idempotent).

        Submissions made *before* ``start`` simply queue (subject to the
        admission bound) and are served once the lanes run.
        """
        self.router.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Shut the lanes down; ``drain=True`` answers everything queued."""
        self.router.close(drain=drain)

    def __enter__(self) -> "PredictionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- addressing ----------------------------------------------------------
    def resolve(self, machine_name: str) -> str:
        """Fingerprint of the stored artifact named ``machine_name``."""
        return self.router.resolve(machine_name)

    def compiled(self, fingerprint: str) -> CompiledMapping:
        """The machine's compiled mapping (loads through the hot cache)."""
        return self.router.compiled(fingerprint)

    # -- submission ----------------------------------------------------------
    def submit(self, fingerprint: str, kernel: Microkernel) -> Future:
        """Enqueue one kernel; the future resolves to its :class:`Prediction`.

        Raises the typed refusal immediately when the machine is unknown
        (registry error), the lane is overloaded
        (:class:`ServiceOverloadedError`) or the service was stopped
        (:class:`ServiceClosedError`).
        """
        lane = self.router.lane_for(fingerprint)
        return lane.submit(self._lowerings.get(kernel))

    def submit_many(
        self, fingerprint: str, kernels: Sequence[Microkernel]
    ) -> Future:
        """Enqueue a group of kernels as one unit; resolves to a list.

        The group coalesces with other traffic but is never split, so one
        network request maps to one future.
        """
        lane = self.router.lane_for(fingerprint)
        return lane.submit_many(self._lowerings.get_many(kernels))

    def submit_lowered(self, fingerprint: str, batch: "LoweredBatch") -> Future:
        """Enqueue a pre-flattened batch as one group; resolves to a list.

        The binary frontend's fast path: a decoded frame is already one
        :class:`~repro.predictors.batch.LoweredBatch`, so the whole
        request crosses the scheduler as a single payload — no per-kernel
        Python object ever exists on the hot path.  Same admission,
        batching and bitwise guarantees as :meth:`submit_many`.
        """
        if batch.num_kernels < 1:
            raise InvalidRequestError("a lowered batch must carry kernels")
        lane = self.router.lane_for(fingerprint)
        return lane.submit_group(batch, batch.num_kernels)

    # -- blocking conveniences ----------------------------------------------
    def predict(
        self,
        fingerprint: str,
        kernel: Microkernel,
        timeout: Optional[float] = None,
    ) -> Prediction:
        return self.submit(fingerprint, kernel).result(timeout)

    def predict_many(
        self,
        fingerprint: str,
        kernels: Sequence[Microkernel],
        timeout: Optional[float] = None,
    ) -> List[Prediction]:
        return self.submit_many(fingerprint, kernels).result(timeout)

    # -- integration ---------------------------------------------------------
    def predictor(
        self, fingerprint: str, name: str = "Palmed"
    ) -> "ServicePredictor":
        """A :class:`~repro.predictors.base.Predictor`-shaped view of one lane.

        Lets existing consumers (the evaluation harness, the Fig. 4b
        metrics) run *through the service* unchanged — same interface,
        bitwise-same results, but micro-batched and admission-controlled.
        """
        return ServicePredictor(self, fingerprint, name=name)

    # -- cluster integration -------------------------------------------------
    def republish(self) -> dict:
        """Hot-swap every resident mapping whose artifact file changed.

        The zero-downtime republish entry point (driven by the
        ``republish`` protocol op and a cluster node's registry watcher):
        each resident fingerprint is checked against its registry file's
        mtime/size stamp and swapped atomically when a new version was
        published — in-flight requests drain on the old compiled mapping,
        later flushes serve the new one, and nothing is ever failed.

        Returns ``{"swapped": {fingerprint: version}, "failed":
        {fingerprint: error message}}``.  A fingerprint whose new file
        fails validation lands in ``failed`` and *keeps serving its old
        version* — a botched publish degrades loudly, never into an
        outage.
        """
        swapped = {}
        failed = {}
        with TRACER.span("service.republish") as span:
            for fingerprint in self.router.cache.resident_fingerprints():
                try:
                    compiled = self.router.republish(fingerprint)
                except Exception as error:  # noqa: BLE001 - typed per fingerprint
                    failed[fingerprint] = f"{type(error).__name__}: {error}"
                    continue
                if compiled is not None:
                    swapped[fingerprint] = compiled.version
            span.set(swapped=len(swapped), failed=len(failed))
        return {"swapped": swapped, "failed": failed}

    def health(self) -> dict:
        """The node's load report: what a coordinator's admission reads.

        ``pending`` is the total number of kernels outstanding across all
        lanes right now; ``max_pending`` the per-lane admission bound
        (``None`` = unbounded).  A coordinator prefers replicas whose
        pending headroom is largest and skips nodes reporting saturation.
        """
        lanes = self.router.known_fingerprints()
        pending = 0
        for fingerprint in lanes:
            try:
                pending += self.router.lane_for(fingerprint).pending
            except Exception:  # noqa: BLE001 - a closing lane reports 0
                pass
        return {
            "status": "ok",
            "pending": pending,
            "max_pending": self.router.max_pending,
            "lanes": len(lanes),
            "artifacts": len(self.registry.entries()),
        }

    def snapshot(self) -> dict:
        """JSON-ready view of the serving statistics."""
        return self.stats.snapshot()


class ServicePredictor:
    """Adapter: one service lane exposed through the Predictor protocol."""

    def __init__(
        self, service: PredictionService, fingerprint: str, name: str = "Palmed"
    ) -> None:
        self.service = service
        self.fingerprint = fingerprint
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    def supports(self, instruction: Instruction) -> bool:
        return self.service.compiled(self.fingerprint).mapping.supports(instruction)

    def predict(self, kernel: Microkernel) -> Prediction:
        return self.service.predict(self.fingerprint, kernel)

    def predict_batch(self, kernels: Sequence[Microkernel]) -> List[Prediction]:
        return self.service.predict_many(self.fingerprint, list(kernels))
