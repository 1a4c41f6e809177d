"""Per-solve statistics of the solver layer.

Every model construction and every solve in the repository is accounted
for in a :class:`SolveStats` record: how many model structures were built,
how many solves ran, and how wall-clock splits between *building* models
and *solving* them.  The split is the LP-side analogue of the paper's
Table II benchmarking-vs-LP-time split, and it is what makes template
reuse visible — a phase that rebinds :class:`repro.solvers.ModelTemplate`
data instead of rebuilding structure reports ``model_builds`` far below
``solves``.  The record also counts how often template data was rebound
between solves (``rebinds`` / ``rebind_time``) and what the backend
reported about solution quality (``limit_solves`` / ``worst_mip_gap``).

Recording is sink-based: all instrumentation records into the *active*
sink, which defaults to a process-global record (read it with
:func:`solver_stats`, clear it with :func:`reset_solver_stats`).  A scope
that wants its own attribution — the core-mapping stage of a pipeline
run — redirects recording with :func:`use_stats` and merges the local
record wherever it needs to go (:func:`record_stats`).
"""

from __future__ import annotations

import contextlib
import dataclasses
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
        Number of backend MILP/LP solves.
    rebinds / rebind_time:
        Template data rebinds (one full :meth:`bind` or incremental
        :meth:`bind_assignment` of an LP2 weight template counts as
        one) and the seconds they took.
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
    """

    model_builds: int = 0
    solves: int = 0
    rebinds: int = 0
    limit_solves: int = 0
    worst_mip_gap: float = 0.0
    build_time: float = 0.0
    solve_time: float = 0.0
    rebind_time: float = 0.0

    # -- combination ---------------------------------------------------------
    def merge(self, other: "SolveStats") -> "SolveStats":
        """Accumulate another record into this one (returns ``self``).

        Every field adds up except ``worst_mip_gap``, a bound, which takes
        the ``max``.
        """
        for item in dataclasses.fields(self):
            mine, theirs = getattr(self, item.name), getattr(other, item.name)
            if item.name == "worst_mip_gap":
                setattr(self, item.name, max(mine, theirs))
            else:
                setattr(self, item.name, mine + theirs)
        return self

    def copy(self) -> "SolveStats":
        return dataclasses.replace(self)

    def as_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


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
    for item in dataclasses.fields(_GLOBAL):
        setattr(_GLOBAL, item.name, item.default)


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
    into the enclosing accounting.
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
