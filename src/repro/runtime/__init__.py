"""Shared parallel execution substrate.

Three primitives, three workload shapes:

* :class:`ParallelRuntime` — the *offline* substrate: fans a finite batch
  of work over a short-lived process pool with deterministic input-order
  reassembly.  Microbenchmark measurement (:mod:`repro.measure`),
  per-instruction LPAUX solving (:mod:`repro.palmed.complete_mapping`) and
  fleet characterization (:mod:`repro.pipeline.fleet`) all chunk through
  it.
* :class:`WorkerLane` — the *online* substrate: a managed daemon thread
  for unbounded request streams that must share in-process state.  The
  serving layer (:mod:`repro.serving`) runs its micro-batching schedulers
  on worker lanes and evaluates every flush on the lane's own thread.
* :class:`LanePool` — the *batch-solving* substrate: long-lived worker
  processes with lane-pinned chunk assignment and persistent lane-local
  state (:func:`lane_state`), plus an exact in-process emulation
  (:func:`run_chunks_in_process`).  The batched complete-mapping solver
  engine runs its LPAUX chunks on it.
"""

from repro.runtime.lane_pool import (
    LanePool,
    LanePoolError,
    lane_state,
    run_chunks_in_process,
)
from repro.runtime.lanes import WorkerLane
from repro.runtime.pool import ParallelRuntime

__all__ = [
    "LanePool",
    "LanePoolError",
    "ParallelRuntime",
    "WorkerLane",
    "lane_state",
    "run_chunks_in_process",
]
