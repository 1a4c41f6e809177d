"""Per-solve statistics of the solver layer.

Every model construction and every solve in the repository is accounted
for in a :class:`SolveStats` record: how many model structures were built,
how many solves ran, and how wall-clock splits between *building* models
and *solving* them.  The split is the LP-side analogue of the paper's
Table II benchmarking-vs-LP-time split, and it is what makes template
reuse visible — a phase that rebinds :class:`repro.solvers.ModelTemplate`
data instead of rebuilding structure reports ``model_builds`` far below
``solves``.

The batched solver engine adds a third axis to the attribution: how many
solve *requests* were answered from a template's incumbent memo instead
of the backend (``warm_start_hits``), how often template data was rebound
between solves (``rebinds`` / ``rebind_time``), how the LPAUX fan-out
batched its instructions (``lp_chunks``) and what the backend reported
about solution quality (``limit_solves`` / ``worst_mip_gap``).

``solves`` counts solve *requests*: a warm-start hit increments both
``solves`` and ``warm_start_hits`` (and adds no backend time), so the
deterministic counters are identical between cold and warm runs — the
backend-invocation count is always ``solves - warm_start_hits``
(:attr:`SolveStats.backend_solves`).

Recording is sink-based: all instrumentation records into the *active*
sink, which defaults to a process-global record (read it with
:func:`solver_stats`, clear it with :func:`reset_solver_stats`).  A scope
that wants its own attribution — one LPAUX instruction solved inside a
worker process, the core-mapping stage of a pipeline run — redirects
recording with :func:`use_stats` and merges the local record wherever it
needs to go (:func:`record_stats`); the LPAUX fan-out uses exactly this to
ship worker-side stats back to the parent process.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator


@dataclass
class SolveStats:
    """Counts and wall-clock of model construction vs. solving.

    Attributes
    ----------
    model_builds:
        Number of model structures constructed (one per
        :meth:`repro.solvers.ModelBuilder.build`).  Template reuse shows
        up as ``model_builds`` smaller than ``solves``.
    solves:
        Number of MILP/LP solve *requests*.  A request served from a
        template's warm-start memo counts here too (and in
        ``warm_start_hits``), so the counter is identical between cold
        and warm runs; backend invocations are ``solves -
        warm_start_hits``.
    warm_start_hits:
        Solve requests answered from a :class:`repro.solvers.ModelTemplate`
        incumbent memo — the bound data matched a previously solved
        problem bit-for-bit, so the stored optimal solution was returned
        without invoking the backend.  Merged additively.
    rebinds / rebind_time:
        Template data rebinds (one full :meth:`bind` or incremental
        :meth:`bind_assignment` of an LP2/LPAUX weight template counts as
        one) and the seconds they took.  Together with ``solve_time``
        this is the per-worker rebind-vs-solve split of the batched
        engine.  Merged additively.
    lp_chunks:
        Number of LPAUX solve chunks executed by the complete-mapping
        fan-out (0 when the record never went through it).  Chunk layout
        is planned from the *requested* parallelism, so the counter is
        identical whether the chunks ran in worker lanes or in-process.
        Merged additively.
    limit_solves:
        Backend solves that stopped at a limit (time / gap) with an
        incumbent instead of proving optimality.  Machine-speed
        dependent — never part of deterministic output hashes.
    worst_mip_gap:
        Largest relative MIP gap the backend reported across all solves
        (0.0 when every solve was exact).  Merged with ``max``.
    build_time:
        Seconds spent constructing model structures (monotonic clock).
    solve_time:
        Seconds spent inside the backend solver (monotonic clock).
    lp_workers_requested / lp_workers_effective:
        The LP fan-out decision of the complete-mapping phase: how many
        worker lanes the configuration asked for and how many were
        actually used after host sizing (a single-core host degrades a
        multi-lane request to in-process solving — the fork and
        serialization overhead buys no added CPU there).  ``0`` means the
        record never went through the fan-out.  Merged with ``max`` (a
        decision, not a quantity to accumulate).
    """

    model_builds: int = 0
    solves: int = 0
    warm_start_hits: int = 0
    rebinds: int = 0
    lp_chunks: int = 0
    limit_solves: int = 0
    worst_mip_gap: float = 0.0
    build_time: float = 0.0
    solve_time: float = 0.0
    rebind_time: float = 0.0
    lp_workers_requested: int = 0
    lp_workers_effective: int = 0

    # -- combination ---------------------------------------------------------
    def merge(self, other: "SolveStats") -> "SolveStats":
        """Accumulate another record into this one (returns ``self``).

        Counters and times merge additively; ``lp_workers_*`` and
        ``worst_mip_gap`` merge with ``max`` (a decision / a bound, not a
        quantity to accumulate across workers).
        """
        self.model_builds += other.model_builds
        self.solves += other.solves
        self.warm_start_hits += other.warm_start_hits
        self.rebinds += other.rebinds
        self.lp_chunks += other.lp_chunks
        self.limit_solves += other.limit_solves
        self.worst_mip_gap = max(self.worst_mip_gap, other.worst_mip_gap)
        self.build_time += other.build_time
        self.solve_time += other.solve_time
        self.rebind_time += other.rebind_time
        self.lp_workers_requested = max(
            self.lp_workers_requested, other.lp_workers_requested
        )
        self.lp_workers_effective = max(
            self.lp_workers_effective, other.lp_workers_effective
        )
        return self

    def copy(self) -> "SolveStats":
        return SolveStats(
            model_builds=self.model_builds,
            solves=self.solves,
            warm_start_hits=self.warm_start_hits,
            rebinds=self.rebinds,
            lp_chunks=self.lp_chunks,
            limit_solves=self.limit_solves,
            worst_mip_gap=self.worst_mip_gap,
            build_time=self.build_time,
            solve_time=self.solve_time,
            rebind_time=self.rebind_time,
            lp_workers_requested=self.lp_workers_requested,
            lp_workers_effective=self.lp_workers_effective,
        )

    @property
    def template_reuses(self) -> int:
        """Solves served by rebinding an existing structure."""
        return max(0, self.solves - self.model_builds)

    @property
    def backend_solves(self) -> int:
        """Solve requests that actually invoked the backend solver."""
        return max(0, self.solves - self.warm_start_hits)

    def as_dict(self) -> Dict[str, float]:
        return {
            "model_builds": self.model_builds,
            "solves": self.solves,
            "warm_start_hits": self.warm_start_hits,
            "rebinds": self.rebinds,
            "lp_chunks": self.lp_chunks,
            "limit_solves": self.limit_solves,
            "worst_mip_gap": self.worst_mip_gap,
            "build_time": self.build_time,
            "solve_time": self.solve_time,
            "rebind_time": self.rebind_time,
            "lp_workers_requested": self.lp_workers_requested,
            "lp_workers_effective": self.lp_workers_effective,
        }


#: Process-global default sink.
_GLOBAL = SolveStats()

#: The sink instrumentation currently records into.
_ACTIVE = _GLOBAL


def solver_stats() -> SolveStats:
    """A copy of the process-global solver statistics."""
    return _GLOBAL.copy()


def reset_solver_stats() -> None:
    """Zero the process-global solver statistics.

    Zeroes in place (never rebinds ``_GLOBAL``) so sinks captured by an
    active :func:`use_stats` scope keep pointing at the live record.
    """
    _GLOBAL.model_builds = 0
    _GLOBAL.solves = 0
    _GLOBAL.warm_start_hits = 0
    _GLOBAL.rebinds = 0
    _GLOBAL.lp_chunks = 0
    _GLOBAL.limit_solves = 0
    _GLOBAL.worst_mip_gap = 0.0
    _GLOBAL.build_time = 0.0
    _GLOBAL.solve_time = 0.0
    _GLOBAL.rebind_time = 0.0
    _GLOBAL.lp_workers_requested = 0
    _GLOBAL.lp_workers_effective = 0


@contextlib.contextmanager
def use_stats(sink: SolveStats) -> Iterator[SolveStats]:
    """Redirect all recording to ``sink`` for the duration of the block.

    The sink *replaces* the previously active one (recording is not
    duplicated into the global record); callers that want the global
    totals to stay complete merge the local sink back with
    :func:`record_stats` once they are done attributing it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sink
    try:
        yield sink
    finally:
        _ACTIVE = previous


def record_stats(delta: SolveStats) -> None:
    """Merge an externally-accumulated record into the active sink.

    Used to re-inject per-scope records captured under :func:`use_stats`
    (or shipped back from worker processes) into the enclosing accounting.
    """
    _ACTIVE.merge(delta)


def record_build(seconds: float) -> None:
    """Account one model-structure construction."""
    _ACTIVE.model_builds += 1
    _ACTIVE.build_time += seconds


def record_solve(seconds: float) -> None:
    """Account one backend solve."""
    _ACTIVE.solves += 1
    _ACTIVE.solve_time += seconds


def record_warm_start() -> None:
    """Account one solve request served from a template's incumbent memo.

    Increments *both* ``solves`` and ``warm_start_hits`` so the
    deterministic request counter is identical between cold and warm
    runs; no backend time is added.
    """
    _ACTIVE.solves += 1
    _ACTIVE.warm_start_hits += 1


def record_rebind(seconds: float) -> None:
    """Account one template data rebind."""
    _ACTIVE.rebinds += 1
    _ACTIVE.rebind_time += seconds


def record_limit_solve() -> None:
    """Account one backend solve that stopped at a limit with an incumbent."""
    _ACTIVE.limit_solves += 1


def record_gap(gap: float) -> None:
    """Fold one reported relative MIP gap into ``worst_mip_gap``."""
    if gap > _ACTIVE.worst_mip_gap:
        _ACTIVE.worst_mip_gap = gap
