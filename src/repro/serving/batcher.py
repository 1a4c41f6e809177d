"""Micro-batching scheduler: coalesce concurrent requests into one batch.

The vectorized prediction engine (:mod:`repro.predictors.batch`) is an
order of magnitude faster per kernel than the scalar path — but only when
asked about many kernels at once.  :class:`MicroBatcher` converts
request-at-a-time traffic into that shape: submitters enqueue individual
payloads (pre-lowered kernels) and immediately receive a
:class:`~concurrent.futures.Future`; the batcher's own daemon scheduler
thread drains the queue, evaluates one coalesced batch, and resolves
every future.

Batching policy
---------------
Two knobs, both soft real-time:

* ``max_batch_size`` — a flush never waits once this many kernels have
  been gathered (a multi-kernel submission may overshoot the cap by the
  tail of its group; groups are never split across batches).
* ``max_wait_s`` — once at least one payload is gathered and the queue has
  drained, the scheduler lingers at most this long for stragglers before
  flushing.  ``0`` (the default) flushes as soon as the queue is empty:
  under concurrent load the queue is naturally non-empty and batches form
  by themselves; under a single caller every request flushes immediately,
  so micro-batching never *adds* latency that the load did not.

Correctness
-----------
Batch composition is invisible in the results: ``predict_lowered`` is
bitwise-identical to the scalar path for every batch size (the engine's
differential suite pins this down), so however requests interleave, each
caller observes exactly the prediction a serial per-request evaluation
would have produced.

Admission control
-----------------
The queue is bounded: when more than ``max_pending`` kernels are
outstanding (queued or mid-flush), further submissions are refused with a
typed :class:`~repro.serving.errors.ServiceOverloadedError` — requests are
never silently dropped.  A failed batch evaluation resolves every affected
future with the error, for the same reason.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.serving.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    ServingError,
)
from repro.serving.stats import ServingStats
from repro.telemetry import TRACER


class _Entry:
    """One submission: a group of payloads and the future resolving them.

    ``width`` is how many result units the entry stands for.  For plain
    submissions it equals ``len(payloads)``; a pre-flattened group payload
    (one object carrying many kernels, e.g. a decoded binary frame) has a
    single payload whose width is its kernel count.
    """

    __slots__ = ("payloads", "future", "single", "width", "submitted_at")

    def __init__(
        self, payloads: Tuple, future: Future, single: bool, width: int
    ) -> None:
        self.payloads = payloads
        self.future = future
        self.single = single
        self.width = width
        self.submitted_at = time.perf_counter()


class MicroBatcher:
    """Coalesces submitted payloads into batches for a process function.

    Parameters
    ----------
    process:
        Called on the scheduler thread with the flat list of payloads of
        one batch; must return one result per payload, in order.
    label:
        Identity recorded in the shared stats (the serving layer uses the
        machine fingerprint).
    max_batch_size / max_wait_s / max_pending:
        The batching and admission policy (see the module docstring);
        ``max_pending=None`` disables admission control.
    stats:
        Shared :class:`ServingStats` sink.
    """

    def __init__(
        self,
        process: Callable[[List], List],
        label: str = "batcher",
        max_batch_size: int = 512,
        max_wait_s: float = 0.0,
        max_pending: Optional[int] = 4096,
        stats: Optional[ServingStats] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive (or None)")
        self._process = process
        self.label = label
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.max_pending = max_pending
        self.stats = stats or ServingStats()
        self._cond = threading.Condition()
        self._entries: Deque[_Entry] = deque()
        self._pending = 0
        self._waiting = 0  # scheduler threads blocked on the condition
        self._closed = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "MicroBatcher":
        """Start the scheduler thread (idempotent; restarts after close)."""
        with self._cond:
            self._closed = False
            if not self.running:
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run,
                    name=f"batcher-{self.label[:16]}",
                    daemon=True,
                )
                self._thread.start()
        return self

    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Refuse new submissions; optionally drain what is already queued.

        With ``drain=True`` (the default) the scheduler keeps flushing
        until the queue is empty before its thread stops, so every admitted
        request still gets its response.  With ``drain=False``, when the
        thread was never started, or when the drain timeout expires with a
        backlog, the still-queued futures are failed with
        :class:`ServiceClosedError` — explicitly, never silently: every
        admitted request either resolves or raises.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if drain and self.running:
            deadline = time.perf_counter() + timeout
            with self._cond:
                while self._entries and time.perf_counter() < deadline:
                    self._cond.wait(0.05)
        # Whatever is still queued (never-started thread, drain=False, or a
        # drain that timed out) is failed explicitly.
        with self._cond:
            abandoned = list(self._entries)
            self._entries.clear()
            abandoned_kernels = sum(entry.width for entry in abandoned)
            self._pending -= abandoned_kernels
        for entry in abandoned:
            if entry.future.set_running_or_notify_cancel():
                entry.future.set_exception(
                    ServiceClosedError(
                        f"batcher {self.label!r} closed before this request "
                        f"was scheduled"
                    )
                )
        if abandoned_kernels:
            self.stats.record_abandoned(abandoned_kernels)
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    @property
    def pending(self) -> int:
        """Outstanding kernels (queued or mid-flush) right now."""
        with self._cond:
            return self._pending

    # -- submission ----------------------------------------------------------
    def submit(self, payload) -> Future:
        """Enqueue one payload; the future resolves to its single result."""
        return self._enqueue((payload,), single=True, width=1)

    def submit_many(self, payloads: Sequence) -> Future:
        """Enqueue a group atomically; the future resolves to a result list.

        The group is scheduled as a unit (never split across batches) and
        counts with its full size against the admission bound.
        """
        payloads = tuple(payloads)
        return self._enqueue(payloads, single=False, width=len(payloads))

    def submit_group(self, payload, width: int) -> Future:
        """Enqueue one pre-flattened group payload standing for ``width`` units.

        The fast path for frontends that decode a whole request straight
        into one batch-shaped object (e.g. a binary frame lowered to a
        :class:`~repro.predictors.batch.LoweredBatch`): the scheduler sees
        a single payload, the process function must expand it to ``width``
        results, and the future resolves to that result list.  Admission
        control and the batch-size cap count the full width.
        """
        if width < 1:
            raise ValueError("group width must be positive")
        return self._enqueue((payload,), single=False, width=int(width))

    def _enqueue(self, payloads: Tuple, single: bool, width: int) -> Future:
        count = width
        future: Future = Future()
        with self._cond:
            if self._closed:
                raise ServiceClosedError(
                    f"batcher {self.label!r} is closed; no new requests accepted"
                )
            if (
                self.max_pending is not None
                and self._pending + count > self.max_pending
            ):
                pending = self._pending
                self.stats.record_refused(count)
                raise ServiceOverloadedError(
                    pending=pending, bound=self.max_pending, requested=count
                )
            self._pending += count
            self._entries.append(_Entry(payloads, future, single, width))
            self.stats.record_admitted(self.label, count, self._pending)
            if self._waiting:
                # Only wake the scheduler when it is actually parked; under
                # sustained load it is already draining, and skipping the
                # notify avoids a futex syscall per submission.
                self._cond.notify()
        return future

    # -- scheduling ----------------------------------------------------------
    def _run(self) -> None:
        """The scheduler thread: gather-and-flush cycles until stopped."""
        while not self._stop.is_set():
            self._drain_once(self._stop)

    def _pop_locked(self, batch: List[_Entry], gathered: int) -> int:
        """Move queued entries into ``batch`` up to the kernel cap."""
        entries = self._entries
        while entries and gathered < self.max_batch_size:
            entry = entries.popleft()
            batch.append(entry)
            gathered += entry.width
        return gathered

    def _drain_once(self, stop: threading.Event) -> None:
        """One gather-and-flush cycle of the scheduler thread."""
        batch: List[_Entry] = []
        with self._cond:
            while not self._entries and not self._closed and not stop.is_set():
                self._waiting += 1
                try:
                    self._cond.wait(0.25)
                finally:
                    self._waiting -= 1
            if not self._entries:
                return
            gathered = self._pop_locked(batch, 0)
            if self.max_wait_s > 0 and not self._closed:
                # Linger for stragglers while below the batch cap.
                deadline = time.perf_counter() + self.max_wait_s
                while gathered < self.max_batch_size and not self._closed:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    if not self._entries:
                        self._waiting += 1
                        try:
                            self._cond.wait(remaining)
                        finally:
                            self._waiting -= 1
                    if self._entries:
                        gathered = self._pop_locked(batch, gathered)
                    elif stop.is_set():
                        break
        if batch:
            self._flush(batch)

    def _flush(self, batch: List[_Entry]) -> None:
        """Evaluate one batch and resolve (or fail) every future.

        Leak-proof by construction: the pending count is released in a
        ``finally``, so admission capacity returns even when the process
        function, a result-shape mismatch, or future resolution misbehaves
        — a failed batch must never wedge the admission bound shut.
        """
        kernels = sum(entry.width for entry in batch)
        failed = 0
        latency_total = 0.0
        latency_max = 0.0
        resolve_s = 0.0
        try:
            live: List[_Entry] = [
                entry
                for entry in batch
                if entry.future.set_running_or_notify_cancel()
            ]
            payloads: List = []
            for entry in live:
                payloads.extend(entry.payloads)
            expected = sum(entry.width for entry in live)
            cancelled = kernels - expected

            error: Optional[BaseException] = None
            results: List = []
            if payloads:
                try:
                    results = self._process(payloads)
                    if len(results) != expected:
                        raise ServingError(
                            f"batcher {self.label!r}: process returned "
                            f"{len(results)} results for {expected} "
                            f"payload unit(s)"
                        )
                except Exception as exc:  # noqa: BLE001 - forwarded to futures
                    error = exc
                    failed = expected

            resolve_start = time.perf_counter()
            position = 0
            for entry in live:
                try:
                    if error is not None:
                        entry.future.set_exception(error)
                    elif entry.single:
                        entry.future.set_result(results[position])
                    else:
                        entry.future.set_result(
                            results[position : position + entry.width]
                        )
                except Exception:  # pragma: no cover - future in a bad state
                    pass  # never let one future wedge the scheduler
                position += entry.width

            now = time.perf_counter()
            resolve_s = now - resolve_start
            for entry in live:
                latency = now - entry.submitted_at
                latency_total += latency * entry.width
                latency_max = max(latency_max, latency)
            # Cancelled kernels were never answered: they count against
            # completion (as failures) so admitted == completed + failed.
            failed += cancelled
        finally:
            with self._cond:
                self._pending -= kernels
                self._cond.notify_all()
            self.stats.record_batch(
                occupancy=kernels,
                latency_total=latency_total,
                latency_max=latency_max,
                failed=failed,
            )
            if resolve_s > 0.0:
                self.stats.record_flush_phases(resolve=resolve_s)
            if TRACER.enabled:
                # One telemetry sample per *flush*, never per request: the
                # batch's mean per-kernel latency (ms) with its occupancy
                # in the labels, so the warehouse can compute
                # occupancy-weighted latency percentiles.
                TRACER.metric(
                    "serving.flush",
                    (latency_total / kernels) * 1e3 if kernels else 0.0,
                    lane=self.label,
                    kernels=kernels,
                    failed=failed,
                    max_ms=latency_max * 1e3,
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MicroBatcher({self.label!r}, max_batch={self.max_batch_size}, "
            f"max_wait_s={self.max_wait_s}, pending={self.pending})"
        )
