"""One cluster serving node: local replica + the existing TCP frontend.

:class:`ClusterNode` is deliberately a thin composition of parts that
already exist — the cluster tier adds *placement*, not a new serving
stack:

1. :func:`~repro.cluster.sync.replicate_registry` copies the source
   registry's mapping artifacts into the node's private replica
   directory (hash-validated, stamp-skipped);
2. a :class:`~repro.serving.service.PredictionService` opens the replica
   **read-only** (a node never mutates what it serves) with whatever
   batching and admission bounds the operator chose;
3. a :class:`~repro.serving.frontend.LineProtocolServer` exposes it on
   TCP — the same protocol, ops and binary negotiation as a standalone
   server, so a node is indistinguishable from ``python -m repro serve``
   to any client (including the coordinator);
4. optionally, a **republish watcher** thread re-syncs the replica every
   ``republish_poll_s`` seconds and, when the sync changed anything,
   triggers the service's zero-downtime hot swap — a publish to the
   source registry propagates to the whole fleet with no operator action
   and no dropped requests.

The watcher treats sync failures as loud-but-survivable: a corrupted
copy raises inside :func:`replicate_registry` *before* installation, the
replica keeps its previous artifacts, the error is recorded on
:attr:`ClusterNode.last_sync_error`, **logged**, and counted in the
service's :class:`~repro.serving.stats.ServingStats`
(``replica_sync_failures`` — visible in the stats op, the shutdown
table, and ``repro stats cluster``); the node keeps serving the old
version — consistent with the registry's "degrade loudly, never into an
outage" refusal philosophy.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.cluster.failpoints import FAILPOINTS, Failpoints
from repro.cluster.sync import SyncReport, load_replica, replicate_registry
from repro.serving.frontend import LineProtocolServer
from repro.serving.service import PredictionService
from repro.telemetry import TRACER

logger = logging.getLogger(__name__)


class ClusterNode:
    """A serving node: replicated artifacts behind the line protocol.

    Parameters
    ----------
    node_id:
        The node's identity in the cluster's static table (rendezvous
        hashing keys on it; keep it stable).
    source:
        The published source registry directory artifacts are synced
        *from*.
    replica_dir:
        This node's private replica directory (created on first sync).
    host / port:
        TCP bind address; port ``0`` picks an ephemeral port (read the
        concrete one from :attr:`address`).
    republish_poll_s:
        Watcher period; ``0`` disables the watcher (syncs then only
        happen via :meth:`sync`, e.g. driven by the ``republish`` op).
    service_options:
        Keyword arguments forwarded to :class:`PredictionService`
        (``max_pending``, ``max_batch_size``, ...).
    """

    def __init__(
        self,
        node_id: str,
        source: Union[str, Path],
        replica_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        republish_poll_s: float = 0.0,
        failpoints: Optional[Failpoints] = None,
        **service_options,
    ) -> None:
        self.node_id = node_id
        self.source = Path(source)
        self.replica_dir = Path(replica_dir)
        self._host = host
        self._port = port
        self.republish_poll_s = republish_poll_s
        self.failpoints = failpoints or FAILPOINTS
        self._service_options = service_options
        self.service: Optional[PredictionService] = None
        self.server: Optional[LineProtocolServer] = None
        self.last_sync_error: Optional[BaseException] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._watcher_thread: Optional[threading.Thread] = None
        self._watcher_stop = threading.Event()

    # -- replication -----------------------------------------------------------
    def sync(self) -> SyncReport:
        """Bring the replica up to date; raises on a validation failure."""
        if not TRACER.enabled:
            return replicate_registry(
                self.source, self.replica_dir, failpoints=self.failpoints
            )
        with TRACER.span("cluster.sync", node=self.node_id) as span:
            report = replicate_registry(
                self.source, self.replica_dir, failpoints=self.failpoints
            )
            span.set(changed=bool(report.changed))
            return report

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "ClusterNode":
        """Sync, open the replica read-only, and serve (idempotent-safe)."""
        if self.server is not None:
            return self
        self.sync()
        self.service = PredictionService(
            load_replica(self.replica_dir), **self._service_options
        ).start()
        self.server = LineProtocolServer(self.service, self._host, self._port)
        self._serve_thread = threading.Thread(
            # A tight poll keeps shutdown()/kill() prompt: a crash drill
            # must sever connections while peers are still mid-stream.
            target=lambda: self.server.serve_forever(poll_interval=0.05),
            name=f"cluster-node-{self.node_id}",
            daemon=True,
        )
        self._serve_thread.start()
        if self.republish_poll_s > 0:
            self._watcher_stop.clear()
            self._watcher_thread = threading.Thread(
                target=self._watch,
                name=f"republish-watcher-{self.node_id}",
                daemon=True,
            )
            self._watcher_thread.start()
        return self

    def stop(self) -> None:
        """Stop watcher, frontend, then the service (draining lanes)."""
        self._watcher_stop.set()
        if self._watcher_thread is not None:
            self._watcher_thread.join(timeout=10.0)
            self._watcher_thread = None
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            if self._serve_thread is not None:
                self._serve_thread.join(timeout=10.0)
                self._serve_thread = None
            self.server = None
        if self.service is not None:
            self.service.stop()
            self.service = None

    def kill(self) -> None:
        """Abrupt node death for fault drills — no drain, sockets severed.

        :meth:`stop` is the zero-downtime path: the accept loop closes but
        established connections keep being answered until they drain.  A
        crash gives peers no such courtesy, so coordinator fault tests
        need this instead: the listening socket closes, every established
        client connection is cut mid-exchange (in-flight requests surface
        as transport failures, driving the failover path), and only then
        is the service torn down.
        """
        self._watcher_stop.set()
        if self._watcher_thread is not None:
            self._watcher_thread.join(timeout=10.0)
            self._watcher_thread = None
        server, self.server = self.server, None
        if server is not None:
            server.shutdown()
            server.server_close()
            server.close_client_connections()
            if self._serve_thread is not None:
                self._serve_thread.join(timeout=10.0)
                self._serve_thread = None
        service, self.service = self.service, None
        if service is not None:
            service.stop()

    def wait(self) -> None:
        """Block until the frontend stops (a shutdown op or :meth:`stop`)."""
        thread = self._serve_thread
        if thread is not None:
            thread.join()

    def __enter__(self) -> "ClusterNode":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- introspection ---------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); raises when the node is not serving."""
        if self.server is None:
            raise RuntimeError(f"node {self.node_id!r} is not serving")
        return self.server.address

    def describe(self) -> Dict[str, object]:
        """JSON-ready identity card (CLI/debugging)."""
        return {
            "node_id": self.node_id,
            "source": str(self.source),
            "replica_dir": str(self.replica_dir),
            "serving": self.server is not None,
            "address": list(self.address) if self.server is not None else None,
            "republish_poll_s": self.republish_poll_s,
        }

    # -- the republish watcher -------------------------------------------------
    def _watch(self) -> None:
        """Poll the source registry; hot-swap when a sync changed anything.

        A failing sync never kills the watcher: the error is kept on
        :attr:`last_sync_error`, logged, counted in the service's
        ``replica_sync_failures`` and (when tracing) emitted as a
        ``cluster.sync_failure`` metric — then the next poll tries again
        while the node keeps serving its previous replica.
        """
        while not self._watcher_stop.wait(self.republish_poll_s):
            try:
                report = self.sync()
            except Exception as error:  # noqa: BLE001 - keep serving old data
                self.last_sync_error = error
                logger.warning(
                    "node %s: replica sync from %s failed (serving the "
                    "previous replica): %s: %s",
                    self.node_id,
                    self.source,
                    type(error).__name__,
                    error,
                )
                if self.service is not None:
                    self.service.stats.record_sync_failure()
                if TRACER.enabled:
                    TRACER.metric(
                        "cluster.sync_failure",
                        1,
                        node=self.node_id,
                        error=type(error).__name__,
                    )
                continue
            self.last_sync_error = None
            if report.changed and self.service is not None:
                self.service.republish()
