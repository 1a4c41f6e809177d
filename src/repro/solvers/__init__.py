"""Linear and mixed-integer programming substrate.

PALMED's reference implementation relies on PuLP/Gurobi.  This package
provides an equivalent, self-contained layer backed by
:func:`scipy.optimize.milp` (the HiGHS solver), which handles both pure
LPs and MILPs.  Every model — LP1, LP2 and LPAUX alike — is built the
same way: :class:`ModelBuilder` appends variables, rows and COO
triplets, and :meth:`ModelBuilder.build` compiles them once into a
:class:`ModelTemplate` whose data (coefficients, bounds, objective) can
be rebound between solves.  Thousands of identically-shaped problems
therefore rebind data instead of rebuilding structure.  Every solve goes
through the one gateway :func:`solve_milp_arrays`.

Public API
----------
``ModelBuilder``, ``ModelTemplate``, ``TemplateSolution``
    The builder, the compiled reusable model and its solve result.
``solve_milp_arrays``
    The single gateway to the HiGHS backend.
``SolveStatus``
    Status of a solve.
``SolveStats``, ``solver_stats``, ``reset_solver_stats``, ``use_stats``,
``record_stats``
    Per-solve statistics (solve count, build-vs-solve time split).
``SolverError``, ``InfeasibleError``, ``UnboundedError``
    Exceptions raised on modeling or solving failures.
"""

from repro.solvers.builder import (
    ModelBuilder,
    ModelTemplate,
    TemplateSolution,
    solve_milp_arrays,
)
from repro.solvers.stats import (
    SolveStats,
    record_stats,
    reset_solver_stats,
    solver_stats,
    use_stats,
)
from repro.solvers.status import (
    InfeasibleError,
    SolverError,
    SolveStatus,
    UnboundedError,
)

__all__ = [
    "InfeasibleError",
    "ModelBuilder",
    "ModelTemplate",
    "SolverError",
    "SolveStats",
    "SolveStatus",
    "TemplateSolution",
    "UnboundedError",
    "record_stats",
    "reset_solver_stats",
    "solve_milp_arrays",
    "solver_stats",
    "use_stats",
]
