"""The metrics warehouse: a sqlite star schema fed by a batched writer.

Schema (one fact table per record kind, ``runs`` as the shared dimension):

* ``runs`` — one row per instrumented execution: kind (``characterize`` /
  ``serve`` / ``cluster`` / ...), ISO start/finish timestamps, hostname,
  ``host_cpus``, machine identity and the writer's drop counter;
* ``spans`` — hierarchical traced intervals (parent ids reference span
  ids within the same run, attributes as JSON);
* ``metrics`` — point samples (per-flush serving latencies, per-solve
  backend wall clocks, cluster failover events) with JSON labels.

Writer model
------------
Hot paths never touch sqlite.  :class:`TelemetryWriter` exposes
non-blocking ``emit_span``/``emit_metric`` puts into a bounded queue; a
daemon thread owns the sqlite connection (sqlite objects are
thread-bound), drains the queue in batches and commits with
``executemany``.  A full queue **drops** the record and counts it in
:attr:`TelemetryWriter.dropped` — backpressure must never propagate into
the serving or solving hot path.  The drop counter is persisted on the
run row at close, so a truncated trace is visible in ``repro stats runs``
instead of silently looking complete.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import socket
import sqlite3
import threading
import uuid
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.telemetry.tracer import TRACER

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id              TEXT PRIMARY KEY,
    kind                TEXT NOT NULL,
    started_at          TEXT NOT NULL,
    finished_at         TEXT,
    hostname            TEXT,
    host_cpus           INTEGER,
    machine_name        TEXT,
    machine_fingerprint TEXT,
    dropped             INTEGER NOT NULL DEFAULT 0,
    attrs               TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS spans (
    run_id     TEXT NOT NULL,
    span_id    INTEGER NOT NULL,
    parent_id  INTEGER,
    name       TEXT NOT NULL,
    start_s    REAL NOT NULL,
    duration_s REAL NOT NULL,
    attrs      TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_spans_run_name ON spans (run_id, name);
CREATE TABLE IF NOT EXISTS metrics (
    run_id TEXT NOT NULL,
    name   TEXT NOT NULL,
    t_s    REAL NOT NULL,
    value  REAL NOT NULL,
    labels TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_metrics_run_name ON metrics (run_id, name);
"""

#: Sentinel shutting the writer thread down after a final drain.
_STOP = object()


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S%z")


def _connect(database: str) -> sqlite3.Connection:
    connection = sqlite3.connect(database)
    connection.executescript(_SCHEMA)
    return connection


class TelemetryWriter:
    """Bounded-queue batched writer for one instrumented run.

    Parameters
    ----------
    path:
        The warehouse sqlite file (created, with schema, on first use).
    kind:
        Run kind recorded on the ``runs`` row (``characterize``,
        ``serve``, ``cluster``, ``bench``, ...).
    machine_name / machine_fingerprint:
        Optional machine identity of the run.
    queue_capacity:
        Bound on in-flight records; overflow drops (counted, never
        blocking).
    flush_interval_s:
        Maximum seconds a drained batch waits before committing.
    """

    def __init__(
        self,
        path: Union[str, Path],
        kind: str,
        machine_name: Optional[str] = None,
        machine_fingerprint: Optional[str] = None,
        queue_capacity: int = 8192,
        flush_interval_s: float = 0.5,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self.run_id = f"{kind}-{uuid.uuid4().hex[:12]}"
        self.machine_name = machine_name
        self.machine_fingerprint = machine_fingerprint
        self.started_at = _utc_now()
        self._attrs = dict(attrs or {})
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_capacity)
        self._flush_interval_s = flush_interval_s
        #: Records lost to a full queue (a plain int: += under the GIL is
        #: close enough for a loss *indicator*; the exact count is not a
        #: correctness quantity).
        self.dropped = 0
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name=f"telemetry-writer-{self.run_id[:20]}",
            daemon=True,
        )
        self._thread.start()

    # -- the non-blocking hot-path sink --------------------------------------
    def emit_span(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_s: float,
        duration_s: float,
        attrs: Dict[str, object],
    ) -> None:
        try:
            self._queue.put_nowait(
                ("span", (span_id, parent_id, name, start_s, duration_s, attrs))
            )
        except queue.Full:
            self.dropped += 1

    def emit_metric(
        self, name: str, t_s: float, value: float, labels: Dict[str, object]
    ) -> None:
        try:
            self._queue.put_nowait(("metric", (name, t_s, value, labels)))
        except queue.Full:
            self.dropped += 1

    # -- the writer thread ---------------------------------------------------
    def _run(self) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            connection = _connect(str(self.path))
        except Exception as error:  # noqa: BLE001 - surfaced at close()
            self._failure = error
            self._drain_to_nowhere()
            return
        try:
            connection.execute(
                "INSERT OR REPLACE INTO runs (run_id, kind, started_at, "
                "hostname, host_cpus, machine_name, machine_fingerprint, attrs) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    self.run_id,
                    self.kind,
                    self.started_at,
                    socket.gethostname(),
                    os.cpu_count() or 1,
                    self.machine_name,
                    self.machine_fingerprint,
                    json.dumps(self._attrs, sort_keys=True),
                ),
            )
            connection.commit()
            stopping = False
            while not stopping:
                spans: List[Tuple] = []
                metrics: List[Tuple] = []
                try:
                    item = self._queue.get(timeout=self._flush_interval_s)
                except queue.Empty:
                    continue
                while True:
                    if item is _STOP:
                        stopping = True
                        break
                    kind, payload = item
                    if kind == "span":
                        span_id, parent_id, name, start_s, duration_s, attrs = payload
                        spans.append(
                            (
                                self.run_id, span_id, parent_id, name,
                                start_s, duration_s,
                                json.dumps(attrs, sort_keys=True, default=str),
                            )
                        )
                    else:
                        name, t_s, value, labels = payload
                        metrics.append(
                            (
                                self.run_id, name, t_s, value,
                                json.dumps(labels, sort_keys=True, default=str),
                            )
                        )
                    try:
                        item = self._queue.get_nowait()
                    except queue.Empty:
                        break
                if spans:
                    connection.executemany(
                        "INSERT INTO spans VALUES (?, ?, ?, ?, ?, ?, ?)", spans
                    )
                if metrics:
                    connection.executemany(
                        "INSERT INTO metrics VALUES (?, ?, ?, ?, ?)", metrics
                    )
                if spans or metrics:
                    connection.commit()
            connection.execute(
                "UPDATE runs SET finished_at = ?, dropped = ? WHERE run_id = ?",
                (_utc_now(), self.dropped, self.run_id),
            )
            connection.commit()
        except Exception as error:  # noqa: BLE001 - surfaced at close()
            self._failure = error
            self._drain_to_nowhere()
        finally:
            with contextlib.suppress(Exception):
                connection.close()

    def _drain_to_nowhere(self) -> None:
        """After a writer failure, keep the queue from filling (and hot
        paths from counting every record as dropped) until close()."""
        while True:
            try:
                if self._queue.get(timeout=0.5) is _STOP:
                    return
            except queue.Empty:
                continue

    # -- lifecycle -----------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Flush everything queued, stamp the run row, stop the thread.

        A writer-thread failure (unwritable path, disk full) surfaces
        here as the original exception: telemetry degrades loudly at the
        *session boundary*, never inside the traced hot path.
        """
        self._queue.put(_STOP)
        self._thread.join(timeout=timeout)
        if self._failure is not None:
            raise self._failure

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetryWriter({str(self.path)!r}, run_id={self.run_id!r}, "
            f"dropped={self.dropped})"
        )


@contextlib.contextmanager
def telemetry_session(
    path: Optional[Union[str, Path]],
    kind: str,
    machine_name: Optional[str] = None,
    machine_fingerprint: Optional[str] = None,
    **writer_options,
) -> Iterator[Optional[TelemetryWriter]]:
    """Enable the global tracer against a warehouse for one scope.

    ``path=None`` yields ``None`` and traces nothing — call sites wrap
    their run unconditionally and let the configuration decide.  When a
    session is already active (an outer CLI session around a ``Palmed``
    run whose config also names a warehouse), the inner session yields
    ``None`` and the outer one keeps recording: spans are never
    double-emitted.
    """
    if path is None:
        yield None
        return
    writer = TelemetryWriter(
        path,
        kind,
        machine_name=machine_name,
        machine_fingerprint=machine_fingerprint,
        **writer_options,
    )
    if not TRACER.activate(writer):
        # An outer session owns the tracer; retire this writer quietly.
        writer.close()
        yield None
        return
    try:
        yield writer
    finally:
        TRACER.deactivate()
        writer.close()


class Warehouse:
    """Read-only access to a telemetry database.

    The file is opened with ``mode=ro`` and never changed: a mistyped path
    raises ``sqlite3.OperationalError`` instead of creating an empty
    warehouse, a sqlite file without a ``runs`` table raises
    ``sqlite3.DatabaseError``, and so does a statement that writes.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._connection = sqlite3.connect(
            self.path.resolve().as_uri() + "?mode=ro", uri=True
        )
        try:
            runs = self._connection.execute(
                "SELECT 1 FROM sqlite_master "
                "WHERE type = 'table' AND name = 'runs'"
            ).fetchone()
            if runs is None:
                raise sqlite3.DatabaseError(
                    f"{self.path} is not a telemetry warehouse"
                )
        except sqlite3.Error:
            self._connection.close()
            raise
        self._connection.row_factory = sqlite3.Row

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- querying ------------------------------------------------------------
    def query(
        self, sql: str, params: Sequence[object] = ()
    ) -> Tuple[List[str], List[Tuple]]:
        """Run one SQL statement; returns ``(column names, rows)``."""
        cursor = self._connection.execute(sql, tuple(params))
        columns = [description[0] for description in cursor.description or ()]
        return columns, [tuple(row) for row in cursor.fetchall()]
