"""Solve statuses and solver-layer exceptions.

:func:`repro.solvers.builder.solve_milp_arrays` maps every backend status
code through :func:`map_status` and raises these exceptions, so every
model built with :class:`repro.solvers.ModelBuilder` reports failures
the same way.
"""

from __future__ import annotations

import enum


class SolverError(RuntimeError):
    """Base class for solver-layer failures."""


class InfeasibleError(SolverError):
    """Raised when the problem is proven infeasible."""


class UnboundedError(SolverError):
    """Raised when the problem is unbounded in the optimization direction."""


class SolveStatus(enum.Enum):
    """Status of a solve, mapped from HiGHS status codes."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    LIMIT = "limit"
    ERROR = "error"


def map_status(code: int) -> SolveStatus:
    """Map a :func:`scipy.optimize.milp` status code to a :class:`SolveStatus`.

    scipy.optimize.milp status codes:
    0 optimal, 1 iteration/time limit, 2 infeasible, 3 unbounded, 4 other.
    """
    mapping = {
        0: SolveStatus.OPTIMAL,
        1: SolveStatus.LIMIT,
        2: SolveStatus.INFEASIBLE,
        3: SolveStatus.UNBOUNDED,
    }
    return mapping.get(code, SolveStatus.ERROR)
