"""Sparse incremental model construction and reusable solve templates.

Every PALMED linear program — LP1's shape ILP and LP2's weight
problems — is built with this module.  The heuristic BWP re-solves the
same structure once per round, so construction appends flat COO triplets
and one compiled structure serves many solves by rebinding its data:

``ModelBuilder``
    Incremental COO-triplet construction: variables, rows and matrix
    entries are appended to flat arrays (no expression objects, no dict
    merging), then compiled once into CSR form.
``ModelTemplate``
    The compiled model.  Its *structure* (sparsity pattern, variable kinds)
    is frozen; its *data* (matrix coefficients, row bounds, variable
    bounds, objective coefficients) can be rebound between solves through
    the entry handles returned at construction time.  Rebinding data and
    re-solving is how LP2's heuristic rounds reuse one structure across
    many solves.  With
    ``warm_start=True`` the template additionally memoizes the optimal
    incumbent of every solved data binding: a later rebind whose data
    matches a previous problem bit-for-bit (as when a heuristic round
    revisits an assignment) is answered from the memo
    without invoking the backend.  The determinism contract is strict:
    because the memo key covers every byte of the bound data and the
    solve options, a hit returns exactly the solution a cold solve of
    the same problem would have produced.
``solve_milp_arrays``
    The one low-level gateway to :func:`scipy.optimize.milp`: every
    :meth:`ModelTemplate.solve` that reaches the backend goes through it,
    so status mapping, error translation and per-solve statistics live in
    one place.

Every structure build and every solve is accounted in
:mod:`repro.solvers.stats`; template reuse is visible there as
``model_builds`` < ``solves``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize, sparse

from repro.solvers import stats as solver_stats
from repro.telemetry import TRACER
from repro.solvers.status import (
    InfeasibleError,
    SolverError,
    SolveStatus,
    UnboundedError,
    map_status,
)


def solve_milp_arrays(
    name: str,
    c: np.ndarray,
    integrality: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    matrix: Optional[sparse.csr_matrix],
    row_lo: Optional[np.ndarray],
    row_hi: Optional[np.ndarray],
    time_limit: Optional[float] = None,
    mip_rel_gap: Optional[float] = None,
) -> Tuple[SolveStatus, np.ndarray, Optional[float]]:
    """Solve ``min c·x  s.t.  row_lo <= A x <= row_hi,  lb <= x <= ub``.

    The single gateway to the HiGHS backend: maps status codes, translates
    infeasible/unbounded/error outcomes to the solver-layer exceptions and
    records the solve in :mod:`repro.solvers.stats`.  Returns the status
    (``OPTIMAL`` or ``LIMIT`` with an incumbent), the solution vector and
    the reported MIP gap (``None`` for pure LPs).
    """
    constraints = None
    if matrix is not None and matrix.shape[0] > 0:
        constraints = optimize.LinearConstraint(matrix, row_lo, row_hi)

    options: Dict[str, float] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = float(mip_rel_gap)

    start = time.monotonic()
    result = optimize.milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=optimize.Bounds(lb=lb, ub=ub),
        options=options or None,
    )
    solve_s = time.monotonic() - start
    solver_stats.record_solve(solve_s)
    if TRACER.enabled:
        TRACER.metric(
            "solver.backend_solve_s",
            solve_s,
            model=name,
            columns=int(c.shape[0]),
            status=int(result.status),
        )

    status = map_status(result.status)
    if status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(f"model {name!r} is infeasible: {result.message}")
    if status is SolveStatus.UNBOUNDED:
        raise UnboundedError(f"model {name!r} is unbounded: {result.message}")
    if result.x is None:
        raise SolverError(
            f"model {name!r} failed to solve (status={result.status}): "
            f"{result.message}"
        )
    gap = getattr(result, "mip_gap", None)
    if status is SolveStatus.LIMIT:
        solver_stats.record_limit_solve()
    if gap is not None:
        solver_stats.record_gap(float(gap))
    return status, np.asarray(result.x, dtype=float), gap


@dataclass
class TemplateSolution:
    """Result of a :meth:`ModelTemplate.solve` call.

    Values are addressed by column index (the handles returned by
    :meth:`ModelBuilder.add_variable`).
    """

    status: SolveStatus
    objective: float
    x: np.ndarray
    mip_gap: Optional[float] = None

    def __getitem__(self, col: int) -> float:
        return float(self.x[col])

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


class ModelBuilder:
    """Incremental COO-triplet construction of an LP/MILP.

    Variables and rows are plain integer indices; matrix entries are
    appended as ``(row, col, coeff)`` triplets and compiled to CSR once by
    :meth:`build`.  Each :meth:`add_entry` returns a *handle* with which
    the compiled :class:`ModelTemplate` can rebind that coefficient later,
    so a family of identically-structured problems pays for construction
    once.

    Duplicate ``(row, col)`` entries are rejected at :meth:`build` time:
    handle-based rebinding requires every coefficient to live at exactly
    one position.  (Accumulate duplicates on the caller side if a model
    needs them.)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._lb: List[float] = []
        self._ub: List[float] = []
        self._integer: List[bool] = []
        self._row_lo: List[float] = []
        self._row_hi: List[float] = []
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._data: List[float] = []
        self._objective: Dict[int, float] = {}
        self._maximize = False

    # -- variables ----------------------------------------------------------
    def add_variable(
        self, lb: float = 0.0, ub: float = math.inf, integer: bool = False
    ) -> int:
        """Append a variable; returns its column index."""
        if lb > ub:
            raise SolverError(f"variable has lb {lb} > ub {ub} in {self.name!r}")
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._integer.append(bool(integer))
        return len(self._lb) - 1

    def add_binary(self) -> int:
        """Append a binary (0/1) variable; returns its column index."""
        return self.add_variable(0.0, 1.0, integer=True)

    # -- rows and entries ----------------------------------------------------
    def add_row(self, lo: float = -math.inf, hi: float = math.inf) -> int:
        """Append an empty constraint row ``lo <= (...) <= hi``; returns its index."""
        self._row_lo.append(float(lo))
        self._row_hi.append(float(hi))
        return len(self._row_lo) - 1

    def add_entry(self, row: int, col: int, coeff: float) -> int:
        """Append one matrix coefficient; returns its rebind handle."""
        self._rows.append(row)
        self._cols.append(col)
        self._data.append(float(coeff))
        return len(self._data) - 1

    def add_row_entries(
        self,
        cols: Sequence[int],
        coeffs: Sequence[float],
        lo: float = -math.inf,
        hi: float = math.inf,
    ) -> int:
        """Convenience: append a row with its coefficients in one call."""
        row = self.add_row(lo, hi)
        for col, coeff in zip(cols, coeffs):
            self.add_entry(row, col, coeff)
        return row

    # -- objective -----------------------------------------------------------
    def set_objective(
        self, terms: Dict[int, float], maximize: bool = False
    ) -> None:
        """Set the linear objective as a ``{column: coefficient}`` mapping."""
        self._objective = dict(terms)
        self._maximize = maximize

    # -- introspection -------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self._lb)

    @property
    def num_rows(self) -> int:
        return len(self._row_lo)

    @property
    def num_entries(self) -> int:
        return len(self._data)

    # -- compilation ---------------------------------------------------------
    def build(self, warm_start: bool = False) -> "ModelTemplate":
        """Compile the triplets into a reusable :class:`ModelTemplate`.

        ``warm_start=True`` enables the template's incumbent memo (see
        :class:`ModelTemplate`).
        """
        start = time.monotonic()
        n_vars = len(self._lb)
        n_rows = len(self._row_lo)
        rows = np.asarray(self._rows, dtype=np.int64)
        cols = np.asarray(self._cols, dtype=np.int64)
        data = np.asarray(self._data, dtype=float)

        if rows.size:
            # Stable lexicographic sort by (row, col): positions in the
            # sorted arrays ARE the CSR data positions, which is what makes
            # handle-based rebinding O(1).
            order = np.lexsort((cols, rows))
            rows, cols, data = rows[order], cols[order], data[order]
            same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if bool(same.any()):
                raise SolverError(
                    f"duplicate matrix entries in {self.name!r}; "
                    "accumulate coefficients before add_entry"
                )
            handle_pos = np.empty(order.size, dtype=np.int64)
            handle_pos[order] = np.arange(order.size)
            indptr = np.zeros(n_rows + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        else:
            handle_pos = np.empty(0, dtype=np.int64)
            indptr = np.zeros(n_rows + 1, dtype=np.int64)

        c = np.zeros(n_vars)
        for col, coeff in self._objective.items():
            c[col] += coeff

        template = ModelTemplate(
            name=self.name,
            c=c,
            maximize=self._maximize,
            integrality=np.asarray(self._integer, dtype=np.int8),
            lb=np.asarray(self._lb, dtype=float),
            ub=np.asarray(self._ub, dtype=float),
            indptr=indptr,
            indices=cols,
            data=data,
            row_lo=np.asarray(self._row_lo, dtype=float),
            row_hi=np.asarray(self._row_hi, dtype=float),
            handle_pos=handle_pos,
            warm_start=warm_start,
        )
        solver_stats.record_build(time.monotonic() - start)
        return template


class ModelTemplate:
    """A compiled model whose data can be rebound between solves.

    The sparsity pattern, variable kinds and row/column counts are fixed at
    :meth:`ModelBuilder.build` time; coefficients, bounds and the objective
    vector remain writable so a family of identically-shaped problems can
    rebind data and re-solve without reconstructing anything.  Parameterized
    entries may hold explicit zeros — the pattern is what is frozen, not the
    values.

    With ``warm_start`` enabled, :meth:`solve` keeps an incumbent memo
    keyed by a fingerprint of *every* rebindable byte (objective, variable
    bounds, matrix data, row bounds) plus the solve options.  A request
    whose bound problem matches a memoized one bit-for-bit is answered
    from the memo — recorded as a warm-start hit, no backend call — and
    is guaranteed to equal what a cold solve of the identical problem
    would return.  Only proven-``OPTIMAL`` solutions are memoized:
    limit-terminated incumbents are machine-speed dependent and never
    reused.
    """

    def __init__(
        self,
        name: str,
        c: np.ndarray,
        maximize: bool,
        integrality: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        row_lo: np.ndarray,
        row_hi: np.ndarray,
        handle_pos: np.ndarray,
        warm_start: bool = False,
    ) -> None:
        self.name = name
        self._c = c
        self._maximize = maximize
        self._integrality = integrality
        self._lb = lb
        self._ub = ub
        self._indptr = indptr
        self._indices = indices
        self._data = data
        self._row_lo = row_lo
        self._row_hi = row_hi
        self._handle_pos = handle_pos
        self._solve_count = 0
        self.warm_start = warm_start
        self._incumbents: Dict[bytes, TemplateSolution] = {}
        self._warm_hits = 0

    # -- rebinding -----------------------------------------------------------
    def set_entry(self, handle: int, value: float) -> None:
        """Rebind one matrix coefficient by its construction handle."""
        self._data[self._handle_pos[handle]] = value

    def set_row_bounds(self, row: int, lo: float, hi: float) -> None:
        self._row_lo[row] = lo
        self._row_hi[row] = hi

    def set_variable_bounds(self, col: int, lb: float, ub: float) -> None:
        self._lb[col] = lb
        self._ub[col] = ub

    def set_objective_coeff(self, col: int, value: float) -> None:
        self._c[col] = value

    # -- introspection -------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return int(self._lb.size)

    @property
    def num_rows(self) -> int:
        return int(self._row_lo.size)

    @property
    def solve_count(self) -> int:
        """Number of solves served by this structure so far."""
        return self._solve_count

    @property
    def warm_start_hits(self) -> int:
        """Solve requests this template answered from its incumbent memo."""
        return self._warm_hits

    @property
    def memo_size(self) -> int:
        """Number of distinct problems memoized by this template."""
        return len(self._incumbents)

    # -- warm starts ---------------------------------------------------------
    def _fingerprint(
        self, time_limit: Optional[float], mip_rel_gap: Optional[float]
    ) -> bytes:
        """Digest of every rebindable byte plus the solve options.

        Two bindings with equal fingerprints describe byte-identical
        problems, so reusing the stored solution is exact by
        construction (the backend is deterministic for identical input).
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._c.tobytes())
        digest.update(self._lb.tobytes())
        digest.update(self._ub.tobytes())
        digest.update(self._data.tobytes())
        digest.update(self._row_lo.tobytes())
        digest.update(self._row_hi.tobytes())
        digest.update(repr((time_limit, mip_rel_gap)).encode())
        return digest.digest()

    # -- solving -------------------------------------------------------------
    def solve(
        self,
        time_limit: Optional[float] = None,
        mip_rel_gap: Optional[float] = None,
    ) -> TemplateSolution:
        """Solve with the currently-bound data; see :func:`solve_milp_arrays`."""
        n = self.num_variables
        if n == 0:
            self._solve_count += 1
            return TemplateSolution(SolveStatus.OPTIMAL, 0.0, np.zeros(0))
        key: Optional[bytes] = None
        if self.warm_start:
            key = self._fingerprint(time_limit, mip_rel_gap)
            hit = self._incumbents.get(key)
            if hit is not None:
                self._solve_count += 1
                self._warm_hits += 1
                solver_stats.record_warm_start()
                return TemplateSolution(
                    status=hit.status,
                    objective=hit.objective,
                    x=hit.x.copy(),
                    mip_gap=hit.mip_gap,
                )
        sign = -1.0 if self._maximize else 1.0
        matrix = None
        if self.num_rows:
            matrix = sparse.csr_matrix(
                (self._data.copy(), self._indices, self._indptr),
                shape=(self.num_rows, n),
            )
        status, x, gap = solve_milp_arrays(
            self.name,
            sign * self._c,
            self._integrality,
            self._lb.copy(),
            self._ub.copy(),
            matrix,
            self._row_lo.copy() if matrix is not None else None,
            self._row_hi.copy() if matrix is not None else None,
            time_limit=time_limit,
            mip_rel_gap=mip_rel_gap,
        )
        integer_mask = self._integrality != 0
        if bool(integer_mask.any()):
            x = x.copy()
            x[integer_mask] = np.round(x[integer_mask])
        objective = float(self._c @ x)
        self._solve_count += 1
        solution = TemplateSolution(status=status, objective=objective, x=x, mip_gap=gap)
        if key is not None and status is SolveStatus.OPTIMAL:
            self._incumbents[key] = TemplateSolution(
                status=status, objective=objective, x=x.copy(), mip_gap=gap
            )
        return solution

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelTemplate({self.name!r}, vars={self.num_variables}, "
            f"rows={self.num_rows}, solves={self._solve_count})"
        )
