"""Lane-pinned worker processes: the one offline fan-out.

Fleet characterization (:mod:`repro.pipeline.fleet`) fans whole machines
out through :func:`run_lanes`; it is the only fan-out left, since
measurement and the LP solves run in the calling process.

* **Lane pinning** — chunk ``i`` is assigned to lane ``i % lanes`` ahead
  of time; every lane executes its chunks strictly in submission order.
  Which lane ran which chunk is planned, never scheduled.
* **Persistent lanes** — each lane of a :class:`LanePool` is one
  long-lived worker process that receives ``(func, context)`` once, then
  only ``(chunk)`` payloads.
* **In-process fallback** — :func:`run_chunks_in_process` executes the
  chunks in order in the current process.  Chunk functions are pure
  functions of ``(context, chunk)``, so both paths return the same
  results.

Failure semantics: environments that cannot spawn lane processes (or lose
one mid-run) raise :class:`LanePoolError` from :meth:`LanePool.run`, and
:func:`run_lanes` degrades to the in-process path with a warning;
exceptions raised by the chunk function itself come back from the lane as
values and re-raise in the parent with their original type — even an
``OSError`` never triggers the fallback.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import warnings
from typing import Callable, List, Optional, Sequence

#: Failures that mean "this environment cannot run lane processes": process
#: or pipe setup errors and pickling failures of ad-hoc payloads.  A lane
#: that dies mid-run surfaces as EOF/broken-pipe on its connection; pickle
#: rejects payloads via PicklingError but also TypeError (locks, sockets)
#: and AttributeError (local functions).
_LANE_ERRORS = (OSError, EOFError, pickle.PicklingError, TypeError, AttributeError)


class LanePoolError(RuntimeError):
    """A lane process could not be started or died mid-run."""


def run_chunks_in_process(
    func: Callable[[object, List], Sequence],
    chunks: Sequence[List],
    context: object,
) -> List[List]:
    """Execute every chunk in order in the current process."""
    return [list(func(context, items)) for items in chunks]


def _lane_main(conn) -> None:
    """Worker-process loop: one ``init``, then ``call`` per chunk, then ``stop``."""
    func: Optional[Callable] = None
    context: object = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent vanished; nothing left to serve
            return
        kind = message[0]
        if kind == "init":
            func, context = message[1], message[2]
            conn.send(("ready", None))
        elif kind == "call":
            assert func is not None, "call before init"
            try:
                payload = ("ok", list(func(context, message[1])))
            except BaseException as error:  # ships to parent; lane stays up
                payload = ("error", error)
            conn.send(payload)
        else:  # "stop"
            conn.close()
            return


class LanePool:
    """``lanes`` long-lived worker processes executing lane-pinned chunks.

    One :meth:`run` call starts the lanes, initializes each with the
    ``(func, context)`` pair once, drives every lane's chunk sequence over
    its pipe (one in-flight chunk per lane) and stops the lanes again.
    Results come back indexed by chunk, in input order.
    """

    def __init__(self, lanes: int, name: str = "lane") -> None:
        if lanes < 1:
            raise ValueError("lanes must be positive")
        self.lanes = lanes
        self.name = name
        self._processes: List = []
        self._connections: List = []

    # -- lifecycle -----------------------------------------------------------
    def _start(self, func: Callable, context: object) -> None:
        ctx = multiprocessing.get_context()
        try:
            for index in range(self.lanes):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_lane_main,
                    args=(child_conn,),
                    name=f"{self.name}-{index}",
                )
                process.start()
                child_conn.close()
                self._processes.append(process)
                self._connections.append(parent_conn)
                parent_conn.send(("init", func, context))
            for conn in self._connections:
                kind, _ = conn.recv()
                if kind != "ready":  # pragma: no cover - defensive
                    raise LanePoolError(f"lane failed to initialize: {kind!r}")
        except _LANE_ERRORS as error:
            self.close()
            raise LanePoolError(f"cannot start lane processes: {error!r}") from error

    def close(self) -> None:
        """Stop every lane process (idempotent)."""
        for conn in self._connections:
            try:
                conn.send(("stop",))
            except _LANE_ERRORS:
                pass
        for conn in self._connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        self._processes = []
        self._connections = []

    # -- execution -----------------------------------------------------------
    def run(
        self,
        func: Callable[[object, List], Sequence],
        chunks: Sequence[List],
        context: object = None,
    ) -> List[List]:
        """Execute chunk ``i`` on lane ``i % lanes``; results in chunk order.

        Raises :class:`LanePoolError` when the environment cannot run (or
        keep) the lane processes — :func:`run_lanes` then degrades to
        :func:`run_chunks_in_process`.  An exception raised by ``func``
        inside a lane re-raises here with its original type.
        """
        chunks = list(chunks)
        if not chunks:
            return []
        results: List[Optional[List]] = [None] * len(chunks)
        failures: List[BaseException] = []
        self._start(func, context)
        try:
            def drive(lane_index: int) -> None:
                conn = self._connections[lane_index]
                for chunk_index in range(lane_index, len(chunks), self.lanes):
                    try:
                        conn.send(("call", chunks[chunk_index]))
                        kind, payload = conn.recv()
                    except _LANE_ERRORS as error:
                        failures.append(
                            LanePoolError(
                                f"lane {lane_index} died mid-run: {error!r}"
                            )
                        )
                        return
                    if kind == "error":
                        failures.append(payload)
                        return
                    results[chunk_index] = payload

            threads = [
                threading.Thread(target=drive, args=(lane,), daemon=True)
                for lane in range(min(self.lanes, len(chunks)))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            self.close()
        if failures:
            # Prefer a real chunk-function exception over infrastructure
            # failures: the former must propagate with its original type.
            for failure in failures:
                if not isinstance(failure, LanePoolError):
                    raise failure
            raise failures[0]
        return results  # type: ignore[return-value]  # all filled: no failures

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LanePool(lanes={self.lanes}, name={self.name!r})"


def run_lanes(
    func: Callable[[object, List], Sequence],
    chunks: Sequence[List],
    context: object,
    lanes: int,
    name: str,
) -> List[List]:
    """Run chunk ``i`` on lane ``i % lanes``; results in chunk order.

    With more than one lane and chunk, a :class:`LanePool` of
    ``min(lanes, len(chunks))`` processes runs the chunks.  Otherwise (``0``
    or ``1`` lanes), or when lane processes cannot run (a warning says so),
    :func:`run_chunks_in_process` runs them here.
    """
    if lanes < 0:
        raise ValueError("lanes must be non-negative")
    chunks = list(chunks)
    if lanes > 1 and len(chunks) > 1:
        # Fewer chunks than lanes leaves the tail lanes unused; chunk i
        # still lands on lane i either way, so capping changes no layout.
        try:
            return LanePool(min(lanes, len(chunks)), name=name).run(
                func, chunks, context
            )
        except LanePoolError as error:
            warnings.warn(
                f"parallel execution unavailable ({error!r}); "
                "falling back to in-process execution",
                stacklevel=3,
            )
    return run_chunks_in_process(func, chunks, context)
