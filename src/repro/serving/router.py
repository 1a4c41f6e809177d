"""Multi-machine routing: one micro-batching lane per machine fingerprint.

A serving node holds mappings for many machines (a fleet characterization
writes them all into one registry).  The router dispatches each request to
the lane of its machine:

* lanes are created on demand, the first time a fingerprint is requested —
  creation validates that the registry actually holds a loadable artifact
  for it, so an uncharacterized machine is refused up front with the
  registry's own typed error;
* each lane is a :class:`~repro.serving.batcher.MicroBatcher` whose
  process function resolves the compiled mapping through the shared
  :class:`~repro.serving.cache.HotMappingCache` *per flush* — so an
  evicted mapping transparently re-loads, and lane memory stays bounded by
  the cache capacity rather than the fleet size;
* requests for different machines batch independently (they could not
  share a matrix evaluation anyway), while requests for the same machine
  coalesce across all clients;
* every flush is evaluated on its lane's own scheduler thread.

Human-friendly addressing: :meth:`MachineRouter.resolve` maps a machine
*name* to the fingerprint of its stored artifact, refusing unknown and
ambiguous names with :class:`~repro.serving.errors.UnknownMachineError`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.artifacts import ArtifactRegistry
from repro.predictors.batch import (
    LoweredBatch,
    LoweredBatchBuilder,
    predictions_from_arrays,
)
from repro.predictors.base import Prediction
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import CompiledMapping, HotMappingCache
from repro.serving.errors import ServiceClosedError, UnknownMachineError
from repro.serving.stats import ServingStats
from repro.telemetry import TRACER


class MachineRouter:
    """Per-fingerprint lane table over a shared hot-mapping cache."""

    def __init__(
        self,
        registry: ArtifactRegistry,
        stats: Optional[ServingStats] = None,
        cache_capacity: int = 8,
        max_batch_size: int = 512,
        max_wait_s: float = 0.0,
        max_pending: Optional[int] = 4096,
    ) -> None:
        self.stats = stats or ServingStats()
        self.cache = HotMappingCache(registry, cache_capacity, self.stats)
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._lanes: Dict[str, MicroBatcher] = {}
        self._name_index: Dict[str, List[str]] = {}
        self._name_index_stamp: Optional[float] = None
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            self._started = True
            self._closed = False
            lanes = list(self._lanes.values())
        for lane in lanes:
            lane.start()

    def close(self, drain: bool = True) -> None:
        with self._lock:
            self._started = False
            self._closed = True
            lanes = list(self._lanes.values())
        for lane in lanes:
            lane.close(drain=drain)

    # -- routing -------------------------------------------------------------
    def lane_for(self, fingerprint: str) -> MicroBatcher:
        """The micro-batching lane of a machine (created on first use).

        Raises the registry's typed error when no loadable artifact exists
        for the fingerprint — the refusal happens at routing time, before
        anything is queued — and :class:`ServiceClosedError` on a closed
        router, so a first-time fingerprint after shutdown is refused
        exactly like an already-routed one (no lane is ever created that
        nothing would schedule).
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "the service is stopped; no new requests accepted"
                )
            lane = self._lanes.get(fingerprint)
            if lane is not None:
                return lane
        # Validate the artifact outside the lane-table lock: it may read
        # from disk.
        self.cache.get(fingerprint)
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "the service is stopped; no new requests accepted"
                )
            lane = self._lanes.get(fingerprint)
            if lane is None:
                lane = MicroBatcher(
                    process=self._processor(fingerprint),
                    label=fingerprint,
                    max_batch_size=self.max_batch_size,
                    max_wait_s=self.max_wait_s,
                    max_pending=self.max_pending,
                    stats=self.stats,
                )
                self._lanes[fingerprint] = lane
                if self._started:
                    lane.start()
                if TRACER.enabled:
                    TRACER.metric(
                        "serving.lane_created", 1, fingerprint=fingerprint
                    )
            return lane

    def compiled(self, fingerprint: str) -> CompiledMapping:
        """The compiled mapping of a machine (through the hot cache)."""
        return self.cache.get(fingerprint)

    # -- zero-downtime republish ---------------------------------------------
    def republish(self, fingerprint: str) -> Optional[CompiledMapping]:
        """Hot-swap a machine's mapping if its artifact file changed.

        The zero-downtime cutover: the hot cache entry is replaced
        atomically — flushes already holding the old compiled mapping
        drain on it, and every later flush resolves the new one.
        In-flight requests are never failed.

        Returns the new compiled mapping when a swap happened, ``None``
        when the artifact is unchanged or not resident.  Raises the
        registry's typed error when the changed file fails validation —
        the old version keeps serving.
        """
        with TRACER.span("serving.republish", fingerprint=fingerprint) as span:
            compiled = self.cache.refresh(fingerprint)
            if compiled is None:
                span.set(swapped=False)
                return None
            lane = self._lanes.get(fingerprint)
            pending = lane.pending if lane is not None else 0
            self.stats.record_republish(pending)
            span.set(swapped=True, drain_pending=pending)
        return compiled

    def _processor(self, fingerprint: str):
        """The lane's process function: lowered payloads -> predictions.

        Payloads are :class:`~repro.predictors.batch.KernelLowering`
        objects (the submission path) or whole pre-flattened
        :class:`LoweredBatch` groups (the binary frontend); both accumulate
        into one preallocated builder, evaluate on the lane thread, and
        come back as a flat prediction list.  Build and predict wall time
        is attributed per flush into the shared stats — what the profiling
        harness reads.
        """
        builder = LoweredBatchBuilder()  # single scheduler thread per lane
        stats = self.stats

        def process(payloads: List) -> List[Prediction]:
            build_start = time.perf_counter()
            for payload in payloads:
                if isinstance(payload, LoweredBatch):
                    builder.append_batch(payload)
                else:
                    builder.append(payload)
            batch = builder.take()
            predict_start = time.perf_counter()
            # Per-flush cache lookup: an evicted mapping re-loads here.
            matrix = self.cache.get(fingerprint).matrix
            ipcs, fractions = matrix.predict_lowered_arrays(batch)
            done = time.perf_counter()
            stats.record_flush_phases(
                build=predict_start - build_start, predict=done - predict_start
            )
            return predictions_from_arrays(ipcs, fractions)

        return process

    # -- name resolution -----------------------------------------------------
    def _registry_stamp(self) -> Optional[float]:
        """Cheap change detector for the registry directory (its mtime).

        Adding or removing an artifact file updates the directory mtime,
        so a long-running node notices re-characterizations: the name
        index is rebuilt and a name that became ambiguous (two artifacts
        now carry it) is refused exactly like on a fresh node, instead of
        silently serving the stale fingerprint forever.
        """
        try:
            return self.cache.registry.root.stat().st_mtime
        except OSError:
            return None

    def _name_index_current(self) -> Dict[str, List[str]]:
        """The name -> fingerprints index, rebuilt when the registry changed.

        One full registry scan per change (not per request): unknown-name
        refusals are answered from the cached index, so a client looping
        on a bad name costs a ``stat`` call, not O(registry) file reads.
        """
        stamp = self._registry_stamp()
        with self._lock:
            if stamp is not None and stamp == self._name_index_stamp:
                return self._name_index
        index: Dict[str, List[str]] = {}
        for artifact in self.cache.registry.entries():
            index.setdefault(artifact.machine_name, []).append(
                artifact.machine_fingerprint
            )
        with self._lock:
            self._name_index = index
            self._name_index_stamp = stamp
        return index

    def resolve(self, machine_name: str) -> str:
        """Fingerprint of the stored artifact with this machine name.

        Raises
        ------
        UnknownMachineError
            No stored artifact carries the name, or several do (fingerprints
            are then the only unambiguous address).
        """
        index = self._name_index_current()
        matches = index.get(machine_name, [])
        if not matches:
            known = sorted(index)
            raise UnknownMachineError(
                f"no mapping artifact named {machine_name!r} in "
                f"{self.cache.registry.root} (known: {', '.join(known) or 'none'}); "
                f"address the machine by fingerprint or characterize it first"
            )
        if len(matches) > 1:
            raise UnknownMachineError(
                f"machine name {machine_name!r} is ambiguous: "
                f"{len(matches)} artifacts carry it; address by fingerprint"
            )
        return matches[0]

    def known_fingerprints(self) -> List[str]:
        """Fingerprints with an active lane, in creation order."""
        with self._lock:
            return list(self._lanes)
