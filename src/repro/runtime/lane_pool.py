"""Lane-pinned worker processes: the one offline fan-out.

Every offline fan-out in the repository — microbenchmark measurement
batches (:mod:`repro.measure`), per-instruction LPAUX weight problems
(:mod:`repro.palmed.complete_mapping`) and fleet characterization
(:mod:`repro.pipeline.fleet`) — goes through :func:`run_lanes`:

* **Lane pinning** — chunk ``i`` is assigned to lane ``i % lanes`` ahead
  of time; every lane executes its chunks strictly in submission order.
  Which lane ran which chunk is planned, never scheduled, so lane-local
  solver state (template caches, warm-start memos) and with it every
  solver counter is deterministic.
* **Persistent lanes** — each lane of a :class:`LanePool` is one
  long-lived worker process that receives ``(func, context)`` once, then
  only ``(chunk)`` payloads; lane-local state (:func:`lane_state`)
  survives across all chunks of a lane, so compiled model templates are
  built once per lane and rebound for every later chunk.  Lanes are not
  daemonic: a fleet lane runs a whole pipeline, which may start lanes of
  its own.
* **Exact in-process emulation** — :func:`run_chunks_in_process` executes
  the identical lane-pinned layout in the current process, swapping one
  state dictionary per emulated lane around each chunk.  A chunk function
  observes exactly the same state lifecycle on both paths, which is what
  makes results and solver statistics bitwise-identical between a
  degraded serial run and a real multi-process run of the same layout.

Failure semantics: environments that cannot spawn lane processes (or lose
one mid-run) raise :class:`LanePoolError` from :meth:`LanePool.run`, and
:func:`run_lanes` degrades to the emulation with a warning; exceptions
raised by the chunk function itself come back from the lane as values and
re-raise in the parent with their original type — even an ``OSError``
never triggers the fallback.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import threading
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Failures that mean "this environment cannot run lane processes": process
#: or pipe setup errors and pickling failures of ad-hoc payloads.  A lane
#: that dies mid-run surfaces as EOF/broken-pipe on its connection; pickle
#: rejects payloads via PicklingError but also TypeError (locks, sockets)
#: and AttributeError (local functions).
_LANE_ERRORS = (OSError, EOFError, pickle.PicklingError, TypeError, AttributeError)


class LanePoolError(RuntimeError):
    """A lane process could not be started or died mid-run."""


#: The current lane's scratch state.  In a lane worker process this is the
#: process-global reset by the ``init`` message; in-process emulation swaps
#: per-lane dictionaries in and out around each chunk.
_LANE_STATE: Dict = {}


def lane_state() -> Dict:
    """Scratch dictionary private to the executing lane.

    Chunk functions use it to keep expensive lane-local structures (model
    template caches, warm-start memos) alive across the chunks of one
    lane.  The lifecycle contract is identical on every execution path:
    fresh at the start of a run, persistent across that lane's chunks, and
    never shared between lanes.
    """
    return _LANE_STATE


def split_chunks(
    items: Sequence, lanes: int, chunk_size: Optional[int] = None
) -> List[List]:
    """Contiguous chunks of ``chunk_size`` items, or one chunk per lane.

    The layout depends on the arguments only — never on effective workers,
    host sizing or scheduling — so lane-pinned state (and every counter
    derived from it) evolves identically on every host and execution path.
    """
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(items) / max(1, lanes)))
    return [
        list(items[start : start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]


def run_chunks_in_process(
    func: Callable[[object, List], Sequence],
    chunks: Sequence[List],
    context: object,
    lanes: int,
) -> List[List]:
    """Execute the lane-pinned chunk layout of :class:`LanePool` in-process.

    Chunk ``i`` runs under the (emulated) state of lane ``i % lanes``, in
    index order — the exact sequence a real pool produces per lane — so
    results *and* any state-dependent accounting are identical to
    :meth:`LanePool.run` with the same layout.
    """
    global _LANE_STATE
    if lanes < 1:
        raise ValueError("lanes must be positive")
    states: Dict[int, Dict] = {}
    results: List[List] = []
    previous = _LANE_STATE
    try:
        for index, items in enumerate(chunks):
            _LANE_STATE = states.setdefault(index % lanes, {})
            results.append(list(func(context, items)))
    finally:
        _LANE_STATE = previous
    return results


def _lane_main(conn) -> None:
    """Worker-process loop: one ``init``, then ``call`` per chunk, then ``stop``."""
    global _LANE_STATE
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
            _LANE_STATE = {}
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
    its pipe (one in-flight chunk per lane, so lane-local state advances
    deterministically) and stops the lanes again.  Results come back
    indexed by chunk, in input order.
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
        :func:`run_chunks_in_process` with the same layout.  An exception
        raised by ``func`` inside a lane re-raises here with its original
        type.
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
) -> Tuple[List[List], int]:
    """Run chunk ``i`` on lane ``i % lanes``: ``(results in chunk order, processes)``.

    With more than one lane and chunk, a :class:`LanePool` of
    ``min(lanes, len(chunks))`` processes runs the chunks.  Otherwise (``0``
    or ``1`` lanes), or when lane processes cannot run (a warning says so),
    :func:`run_chunks_in_process` runs the same layout here: 1 process.
    """
    if lanes < 0:
        raise ValueError("lanes must be non-negative")
    chunks = list(chunks)
    lanes = max(1, lanes)
    if lanes > 1 and len(chunks) > 1:
        # Fewer chunks than lanes leaves the tail lanes unused; chunk i
        # still lands on lane i either way, so capping changes no layout.
        processes = min(lanes, len(chunks))
        try:
            return LanePool(processes, name=name).run(func, chunks, context), processes
        except LanePoolError as error:
            warnings.warn(
                f"parallel execution unavailable ({error!r}); "
                "falling back to in-process execution",
                stacklevel=3,
            )
    return run_chunks_in_process(func, chunks, context, lanes), 1
