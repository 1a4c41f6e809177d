"""Shared parallel execution substrate.

Two primitives, two workload shapes:

* :func:`run_lanes` — the *offline* substrate: fans a finite list of
  chunks (:func:`split_chunks`) over a :class:`LanePool` of long-lived,
  lane-pinned worker processes with persistent lane-local state
  (:func:`lane_state`), and degrades to an exact in-process emulation
  (:func:`run_chunks_in_process`) when lane processes are unavailable.
  Microbenchmark measurement (:mod:`repro.measure`), per-instruction
  LPAUX solving (:mod:`repro.palmed.complete_mapping`) and fleet
  characterization (:mod:`repro.pipeline.fleet`) all fan out through it.
* :class:`WorkerLane` — the *online* substrate: a managed daemon thread
  for unbounded request streams that must share in-process state.  The
  serving layer (:mod:`repro.serving`) runs its micro-batching schedulers
  on worker lanes and evaluates every flush on the lane's own thread.
"""

from repro.runtime.lane_pool import (
    LanePool,
    LanePoolError,
    lane_state,
    run_chunks_in_process,
    run_lanes,
    split_chunks,
)
from repro.runtime.lanes import WorkerLane

__all__ = [
    "LanePool",
    "LanePoolError",
    "WorkerLane",
    "lane_state",
    "run_chunks_in_process",
    "run_lanes",
    "split_chunks",
]
