"""Worker lanes: the managed execution substrate for online request processing.

:func:`~repro.runtime.lane_pool.run_lanes` (the sibling module) is the
*offline* substrate: it fans a finite list of chunks over lane-pinned
worker processes and reassembles the results.  Online serving has the
opposite shape — an unbounded stream of small requests that must share
in-process state (the compiled mapping matrices, the numpy arrays a
batch evaluation gathers from) — so its substrate is a **thread**: numpy
releases the GIL inside the large batched operations, and everything
else needs that shared state.

:class:`WorkerLane` is the managed-thread primitive the serving layer
builds on: a daemon thread running a caller-supplied loop body until
stopped, with idempotent start/stop and a join that cannot hang the
interpreter.  The micro-batching scheduler (:class:`repro.serving.batcher.
MicroBatcher`) runs one lane per machine fingerprint, and every flush
is evaluated on that lane's thread.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Optional

#: Process-wide counter giving every lane a distinguishable default name.
_LANE_IDS = itertools.count()


class WorkerLane:
    """A managed daemon thread repeatedly running a loop body until stopped.

    Parameters
    ----------
    body:
        Called as ``body(stop)`` in a loop on the lane thread, where
        ``stop`` is the lane's :class:`threading.Event`.  The body is
        expected to block on its own work source (a condition variable, a
        queue) and to return promptly once ``stop`` is set; the loop exits
        when the event is set and the current body call has returned.
    name:
        Thread name for diagnostics; defaults to ``"worker-lane-<n>"``.

    Notes
    -----
    ``start``/``stop`` are idempotent and thread-safe.  The thread is a
    daemon, so a service that is never stopped cannot keep the interpreter
    alive; an orderly shutdown (``stop(join=True)``) still drains cleanly
    because the body observes the stop event through its own wakeup.
    """

    def __init__(
        self,
        body: Callable[[threading.Event], None],
        name: Optional[str] = None,
    ) -> None:
        self._body = body
        self.name = name or f"worker-lane-{next(_LANE_IDS)}"
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------
    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "WorkerLane":
        """Start the lane thread (no-op if already running)."""
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run, name=self.name, daemon=True
                )
                self._thread.start()
        return self

    def stop(self, join: bool = True, timeout: float = 5.0) -> None:
        """Signal the body to finish and (optionally) join the thread."""
        with self._lock:
            self._stop.set()
            thread = self._thread
        if join and thread is not None and thread.is_alive():
            thread.join(timeout)

    # -- internals -----------------------------------------------------------
    def _run(self) -> None:
        stop = self._stop
        while not stop.is_set():
            self._body(stop)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return f"WorkerLane({self.name!r}, {state})"
