"""Shared execution substrate.

Two primitives, two workload shapes:

* :func:`run_lanes` — the *offline* substrate: fans a finite list of
  chunks over a :class:`LanePool` of long-lived, lane-pinned worker
  processes, and degrades to running them in-process
  (:func:`run_chunks_in_process`) when lane processes are unavailable.
  Fleet characterization (:mod:`repro.pipeline.fleet`) fans out through
  it, one machine per chunk.
* :class:`WorkerLane` — the *online* substrate: a managed daemon thread
  for unbounded request streams that must share in-process state.  The
  serving layer (:mod:`repro.serving`) runs its micro-batching schedulers
  on worker lanes and evaluates every flush on the lane's own thread.
"""

from repro.runtime.lane_pool import (
    LanePool,
    LanePoolError,
    run_chunks_in_process,
    run_lanes,
)
from repro.runtime.lanes import WorkerLane

__all__ = [
    "LanePool",
    "LanePoolError",
    "WorkerLane",
    "run_chunks_in_process",
    "run_lanes",
]
