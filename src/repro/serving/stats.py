"""Thread-safe serving metrics: latency, batch occupancy, cache behaviour.

One :class:`ServingStats` instance is shared by every component of a
:class:`~repro.serving.service.PredictionService` — admission control,
the per-machine micro-batching lanes, the hot-mapping and kernel-lowering
caches — and aggregates under a single lock.  The hot path touches the
lock once per submitted request and once per flushed batch (with the
per-request latencies pre-aggregated outside the lock), so the accounting
costs a fraction of a microsecond per request.

:meth:`ServingStats.snapshot` returns a plain dict (JSON-ready, used by
the ``stats`` op of the line protocol and the CLI), and
:meth:`ServingStats.format_table` renders the operator view.

Cross-node aggregation
----------------------
A cluster coordinator reads each node's snapshot over the wire and folds
them into one view with :meth:`ServingStats.merge` (or
:meth:`merge_snapshot` directly from the wire dict).  The semantics
follow the :meth:`repro.solvers.SolveStats.merge` convention: **counters
and durations merge additively** (requests, batches, cache hits, latency
totals — quantities that accumulate across nodes), **watermarks merge
with max** (``pending_peak``, ``batch_occupancy_max``, ``latency_max``,
``republish_pending_peak`` — per-node observations of a bound, which are
not additive across machines).  Derived rates (means, hit rates) are
never merged — they are recomputed from the merged raw counters, so the
aggregate view is exactly what one node observing all the traffic would
have reported.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional


class ServingStats:
    """Mutable, thread-safe accumulator of serving metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # admission
        self.requests_submitted = 0
        self.requests_admitted = 0
        self.requests_refused = 0
        self.requests_completed = 0
        self.requests_failed = 0
        self.pending_peak = 0
        # batching
        self.batches_flushed = 0
        self.batch_occupancy_total = 0
        self.batch_occupancy_max = 0
        # latency (seconds, monotonic-clock submit -> response)
        self.latency_total = 0.0
        self.latency_max = 0.0
        # flush-phase attribution (seconds, scheduler-side): building the
        # lowered batch, evaluating it, resolving futures
        self.flush_build_s = 0.0
        self.flush_predict_s = 0.0
        self.flush_resolve_s = 0.0
        # hot-mapping cache
        self.mapping_cache_hits = 0
        self.mapping_cache_misses = 0
        self.mapping_cache_evictions = 0
        # kernel-lowering cache
        self.lowering_cache_hits = 0
        self.lowering_cache_misses = 0
        self.lowering_cache_evictions = 0
        # zero-downtime republish: hot mapping swaps and the drain
        # watermark (kernels still in flight against the old compiled
        # mapping at the moment of the swap)
        self.mapping_republishes = 0
        self.republish_pending_peak = 0
        # replica maintenance: sync attempts the republish watcher (or an
        # explicit republish op) failed — a wedged watcher shows up here
        # instead of dying silently
        self.replica_sync_failures = 0
        # per-machine routed request counts, keyed by fingerprint
        self.requests_by_fingerprint: Dict[str, int] = {}

    # -- admission -----------------------------------------------------------
    def record_admitted(self, fingerprint: str, count: int, pending: int) -> None:
        with self._lock:
            self.requests_submitted += count
            self.requests_admitted += count
            self.pending_peak = max(self.pending_peak, pending)
            by_machine = self.requests_by_fingerprint
            by_machine[fingerprint] = by_machine.get(fingerprint, 0) + count

    def record_refused(self, count: int) -> None:
        with self._lock:
            self.requests_submitted += count
            self.requests_refused += count

    # -- batching ------------------------------------------------------------
    def record_batch(
        self,
        occupancy: int,
        latency_total: float,
        latency_max: float,
        failed: int = 0,
    ) -> None:
        """One flushed batch: occupancy plus pre-aggregated latencies."""
        with self._lock:
            self.batches_flushed += 1
            self.batch_occupancy_total += occupancy
            self.batch_occupancy_max = max(self.batch_occupancy_max, occupancy)
            self.requests_completed += occupancy - failed
            self.requests_failed += failed
            self.latency_total += latency_total
            self.latency_max = max(self.latency_max, latency_max)

    def record_flush_phases(
        self, build: float = 0.0, predict: float = 0.0, resolve: float = 0.0
    ) -> None:
        """Attribute scheduler wall time to the phases of one flush.

        perfbench's traced serve workloads read these totals (through the
        node's stats snapshot) to attribute a run's wall time; the serving
        hot path records one call per flush, never per request.
        """
        with self._lock:
            self.flush_build_s += build
            self.flush_predict_s += predict
            self.flush_resolve_s += resolve

    def record_abandoned(self, count: int) -> None:
        """Admitted kernels failed at shutdown without reaching a batch.

        Counted as failures so ``requests_admitted == requests_completed +
        requests_failed`` holds across an abandoning close.
        """
        with self._lock:
            self.requests_failed += count

    # -- caches --------------------------------------------------------------
    def record_mapping_cache(self, hit: bool, evicted: int = 0) -> None:
        with self._lock:
            if hit:
                self.mapping_cache_hits += 1
            else:
                self.mapping_cache_misses += 1
            self.mapping_cache_evictions += evicted

    def record_lowering_cache(self, hit: bool, evicted: int = 0) -> None:
        with self._lock:
            if hit:
                self.lowering_cache_hits += 1
            else:
                self.lowering_cache_misses += 1
            self.lowering_cache_evictions += evicted

    def record_lowering_cache_many(
        self, hits: int, misses: int, evicted: int = 0
    ) -> None:
        """Batched form of :meth:`record_lowering_cache`: one lock for a
        whole multi-kernel submission instead of one per kernel."""
        with self._lock:
            self.lowering_cache_hits += hits
            self.lowering_cache_misses += misses
            self.lowering_cache_evictions += evicted

    # -- republish -----------------------------------------------------------
    def record_republish(self, pending: int) -> None:
        """One hot mapping swap; ``pending`` kernels drain on the old one.

        The pending watermark is the zero-downtime evidence: those
        kernels were in flight when the new version swapped in, and every
        one of them still resolves (against whichever compiled mapping
        its flush had already taken) — the republish test asserts the
        counters balance afterwards.
        """
        with self._lock:
            self.mapping_republishes += 1
            self.republish_pending_peak = max(self.republish_pending_peak, pending)

    def record_sync_failure(self) -> None:
        """One failed replica sync (watcher poll or explicit republish)."""
        with self._lock:
            self.replica_sync_failures += 1

    # -- aggregation ---------------------------------------------------------
    def merge(self, other: "ServingStats") -> "ServingStats":
        """Accumulate another node's record into this one (returns ``self``).

        Counters and durations merge additively; the watermarks
        (``pending_peak``, ``batch_occupancy_max``, ``latency_max``,
        ``republish_pending_peak``) merge with ``max`` — the
        :meth:`repro.solvers.SolveStats.merge` convention.  Derived rates
        are not state and simply fall out of the merged counters on the
        next :meth:`snapshot`.
        """
        with other._lock:
            contribution = other._raw_locked()
        with self._lock:
            self._merge_raw_locked(contribution)
        return self

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> "ServingStats":
        """Merge a wire-form :meth:`snapshot` dict (a remote node's stats).

        The coordinator's aggregation path: node stats travel as JSON
        snapshots, so the raw counters are read back out of the snapshot
        (derived rates are ignored) and merged with the same
        additive-vs-max semantics as :meth:`merge`.
        """
        contribution = {
            "requests_submitted": int(snapshot.get("requests_submitted", 0)),
            "requests_admitted": int(snapshot.get("requests_admitted", 0)),
            "requests_refused": int(snapshot.get("requests_refused", 0)),
            "requests_completed": int(snapshot.get("requests_completed", 0)),
            "requests_failed": int(snapshot.get("requests_failed", 0)),
            "pending_peak": int(snapshot.get("pending_peak", 0)),
            "batches_flushed": int(snapshot.get("batches_flushed", 0)),
            "batch_occupancy_total": int(snapshot.get("batch_occupancy_total", 0)),
            "batch_occupancy_max": int(snapshot.get("batch_occupancy_max", 0)),
            "latency_total": float(snapshot.get("latency_total_s", 0.0)),
            "latency_max": 1e-3 * float(snapshot.get("latency_max_ms", 0.0)),
            "flush_build_s": 1e-3 * float(snapshot.get("flush_build_ms_total", 0.0)),
            "flush_predict_s": 1e-3
            * float(snapshot.get("flush_predict_ms_total", 0.0)),
            "flush_resolve_s": 1e-3
            * float(snapshot.get("flush_resolve_ms_total", 0.0)),
            "mapping_cache_hits": int(snapshot.get("mapping_cache_hits", 0)),
            "mapping_cache_misses": int(snapshot.get("mapping_cache_misses", 0)),
            "mapping_cache_evictions": int(snapshot.get("mapping_cache_evictions", 0)),
            "lowering_cache_hits": int(snapshot.get("lowering_cache_hits", 0)),
            "lowering_cache_misses": int(snapshot.get("lowering_cache_misses", 0)),
            "lowering_cache_evictions": int(
                snapshot.get("lowering_cache_evictions", 0)
            ),
            "mapping_republishes": int(snapshot.get("mapping_republishes", 0)),
            "republish_pending_peak": int(snapshot.get("republish_pending_peak", 0)),
            "replica_sync_failures": int(snapshot.get("replica_sync_failures", 0)),
            "requests_by_fingerprint": dict(
                snapshot.get("requests_by_fingerprint", {})
            ),
        }
        with self._lock:
            self._merge_raw_locked(contribution)
        return self

    def _raw_locked(self) -> Dict[str, object]:
        """The raw merge-able state (caller holds the lock)."""
        return {
            "requests_submitted": self.requests_submitted,
            "requests_admitted": self.requests_admitted,
            "requests_refused": self.requests_refused,
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "pending_peak": self.pending_peak,
            "batches_flushed": self.batches_flushed,
            "batch_occupancy_total": self.batch_occupancy_total,
            "batch_occupancy_max": self.batch_occupancy_max,
            "latency_total": self.latency_total,
            "latency_max": self.latency_max,
            "flush_build_s": self.flush_build_s,
            "flush_predict_s": self.flush_predict_s,
            "flush_resolve_s": self.flush_resolve_s,
            "mapping_cache_hits": self.mapping_cache_hits,
            "mapping_cache_misses": self.mapping_cache_misses,
            "mapping_cache_evictions": self.mapping_cache_evictions,
            "lowering_cache_hits": self.lowering_cache_hits,
            "lowering_cache_misses": self.lowering_cache_misses,
            "lowering_cache_evictions": self.lowering_cache_evictions,
            "mapping_republishes": self.mapping_republishes,
            "republish_pending_peak": self.republish_pending_peak,
            "replica_sync_failures": self.replica_sync_failures,
            "requests_by_fingerprint": dict(self.requests_by_fingerprint),
        }

    #: Raw fields that merge with ``max`` (per-node watermarks); every
    #: other numeric field is additive.
    WATERMARK_FIELDS = frozenset(
        {
            "pending_peak",
            "batch_occupancy_max",
            "latency_max",
            "republish_pending_peak",
        }
    )

    def _merge_raw_locked(self, contribution: Dict[str, object]) -> None:
        for key, value in contribution.items():
            if key == "requests_by_fingerprint":
                by_machine = self.requests_by_fingerprint
                for fingerprint, count in value.items():
                    by_machine[fingerprint] = by_machine.get(fingerprint, 0) + int(
                        count
                    )
            elif key in self.WATERMARK_FIELDS:
                setattr(self, key, max(getattr(self, key), value))
            else:
                setattr(self, key, getattr(self, key) + value)

    # -- views ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A consistent, JSON-ready view of every counter plus derived rates."""
        with self._lock:
            completed = self.requests_completed
            batches = self.batches_flushed
            mapping_lookups = self.mapping_cache_hits + self.mapping_cache_misses
            lowering_lookups = self.lowering_cache_hits + self.lowering_cache_misses
            return {
                "requests_submitted": self.requests_submitted,
                "requests_admitted": self.requests_admitted,
                "requests_refused": self.requests_refused,
                "requests_completed": completed,
                "requests_failed": self.requests_failed,
                "pending_peak": self.pending_peak,
                "batches_flushed": batches,
                "batch_occupancy_total": self.batch_occupancy_total,
                "batch_occupancy_mean": (
                    self.batch_occupancy_total / batches if batches else 0.0
                ),
                "batch_occupancy_max": self.batch_occupancy_max,
                "latency_total_s": self.latency_total,
                "latency_mean_ms": (
                    1e3 * self.latency_total / completed if completed else 0.0
                ),
                "latency_max_ms": 1e3 * self.latency_max,
                "flush_build_ms_total": 1e3 * self.flush_build_s,
                "flush_predict_ms_total": 1e3 * self.flush_predict_s,
                "flush_resolve_ms_total": 1e3 * self.flush_resolve_s,
                "mapping_cache_hits": self.mapping_cache_hits,
                "mapping_cache_misses": self.mapping_cache_misses,
                "mapping_cache_evictions": self.mapping_cache_evictions,
                "mapping_cache_hit_rate": (
                    self.mapping_cache_hits / mapping_lookups
                    if mapping_lookups
                    else 0.0
                ),
                "lowering_cache_hits": self.lowering_cache_hits,
                "lowering_cache_misses": self.lowering_cache_misses,
                "lowering_cache_evictions": self.lowering_cache_evictions,
                "lowering_cache_hit_rate": (
                    self.lowering_cache_hits / lowering_lookups
                    if lowering_lookups
                    else 0.0
                ),
                "mapping_republishes": self.mapping_republishes,
                "republish_pending_peak": self.republish_pending_peak,
                "replica_sync_failures": self.replica_sync_failures,
                "requests_by_fingerprint": dict(self.requests_by_fingerprint),
            }

    def format_table(self, title: Optional[str] = None) -> str:
        """The operator-facing summary table."""
        snap = self.snapshot()
        lines = [title or "Serving statistics", "-" * 46]
        rows = (
            ("Requests admitted", f"{snap['requests_admitted']}"),
            ("Requests refused (overload)", f"{snap['requests_refused']}"),
            ("Requests completed", f"{snap['requests_completed']}"),
            ("Requests failed", f"{snap['requests_failed']}"),
            ("Batches flushed", f"{snap['batches_flushed']}"),
            ("Batch occupancy (mean/max)",
             f"{snap['batch_occupancy_mean']:.1f} / {snap['batch_occupancy_max']}"),
            ("Latency ms (mean/max)",
             f"{snap['latency_mean_ms']:.2f} / {snap['latency_max_ms']:.2f}"),
            ("Mapping cache hit rate",
             f"{100.0 * snap['mapping_cache_hit_rate']:.1f}% "
             f"({snap['mapping_cache_evictions']} evictions)"),
            ("Lowering cache hit rate",
             f"{100.0 * snap['lowering_cache_hit_rate']:.1f}% "
             f"({snap['lowering_cache_evictions']} evictions)"),
            ("Mapping republishes",
             f"{snap['mapping_republishes']} "
             f"(drain peak {snap['republish_pending_peak']})"),
            ("Replica sync failures", f"{snap['replica_sync_failures']}"),
            ("Machines served", f"{len(snap['requests_by_fingerprint'])}"),
        )
        width = max(len(label) for label, _ in rows)
        lines.extend(f"{label.ljust(width)}  {value}" for label, value in rows)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snap = self.snapshot()
        return (
            f"ServingStats(admitted={snap['requests_admitted']}, "
            f"refused={snap['requests_refused']}, "
            f"batches={snap['batches_flushed']})"
        )
