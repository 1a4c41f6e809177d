"""Tests for the solve gateway ``solve_milp_arrays`` and its template boundary.

Every solve in the repository reaches HiGHS through
:func:`repro.solvers.solve_milp_arrays`.  The contract under test: the
gateway takes ``min c·x`` in plain arrays, returns the status, the raw
solution vector and the MIP gap, and translates infeasible, unbounded
and crossed-bound problems into the solver-layer exceptions.  On the
template side, a model with no columns never reaches the gateway (the
backend rejects it) and integer columns are rounded after the backend
returns.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse

from repro.solvers import (
    InfeasibleError,
    ModelBuilder,
    SolverError,
    SolveStats,
    SolveStatus,
    UnboundedError,
    solve_milp_arrays,
    use_stats,
)


def _rows(dense, lo, hi):
    """CSR matrix plus row-bound arrays from a dense row list."""
    return (
        sparse.csr_matrix(np.asarray(dense, dtype=float)),
        np.asarray(lo, dtype=float),
        np.asarray(hi, dtype=float),
    )


class TestModelBasics:
    def test_empty_model_solves_trivially(self):
        # scipy's milp refuses a problem with no columns, so the template
        # answers it without a backend call.
        stats = SolveStats()
        with use_stats(stats):
            solution = ModelBuilder("empty").build().solve()
        assert solution.is_optimal
        assert solution.objective == 0.0
        assert solution.x.size == 0
        assert stats.solves == 0

    def test_invalid_bounds_rejected(self):
        # Crossed bounds can reach the gateway through template rebinding,
        # which does not validate; the gateway must still refuse them.
        with pytest.raises(SolverError):
            solve_milp_arrays(
                "crossed",
                np.array([1.0]),
                np.zeros(1),
                np.array([2.0]),
                np.array([1.0]),
                None,
                None,
                None,
            )

        builder = ModelBuilder("rebound")
        x = builder.add_variable(0.0, 1.0)
        builder.set_objective({x: 1.0}, maximize=True)
        template = builder.build()
        template.set_variable_bounds(x, 2.0, 1.0)
        with pytest.raises(SolverError):
            template.solve()


class TestSolving:
    def test_simple_lp_maximization(self):
        # max 2x + 3y  s.t.  x + 2y <= 4, 3x + y <= 6, handed to the
        # gateway as min -2x - 3y.
        matrix, lo, hi = _rows([[1.0, 2.0], [3.0, 1.0]], [-math.inf] * 2, [4.0, 6.0])
        stats = SolveStats()
        with use_stats(stats):
            status, x, _ = solve_milp_arrays(
                "lp",
                np.array([-2.0, -3.0]),
                np.zeros(2),
                np.zeros(2),
                np.full(2, math.inf),
                matrix,
                lo,
                hi,
            )
        assert status is SolveStatus.OPTIMAL
        assert x[0] == pytest.approx(1.6, abs=1e-6)
        assert x[1] == pytest.approx(1.2, abs=1e-6)
        assert float(np.array([2.0, 3.0]) @ x) == pytest.approx(6.8, abs=1e-6)
        assert stats.solves == 1

    def test_infeasible_raises(self):
        matrix, lo, hi = _rows([[1.0]], [2.0], [math.inf])
        with pytest.raises(InfeasibleError, match="'infeasible'"):
            solve_milp_arrays(
                "infeasible",
                np.array([1.0]),
                np.zeros(1),
                np.zeros(1),
                np.ones(1),
                matrix,
                lo,
                hi,
            )

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedError, match="'unbounded'"):
            solve_milp_arrays(
                "unbounded",
                np.array([-1.0]),
                np.zeros(1),
                np.zeros(1),
                np.full(1, math.inf),
                None,
                None,
                None,
            )

    def test_binary_knapsack(self):
        values = np.array([10.0, 13.0, 18.0, 31.0, 7.0, 15.0])
        weights = [2.0, 3.0, 4.0, 5.0, 1.0, 4.0]
        matrix, lo, hi = _rows([weights], [-math.inf], [10.0])
        status, x, gap = solve_milp_arrays(
            "knapsack",
            -values,
            np.ones(values.size),
            np.zeros(values.size),
            np.ones(values.size),
            matrix,
            lo,
            hi,
        )
        assert status is SolveStatus.OPTIMAL
        assert gap is not None
        chosen = [i for i, value in enumerate(x) if value > 0.5]
        assert chosen == [2, 3, 4]  # weights 4+5+1 = 10, values 18+31+7 = 56
        assert float(values @ np.round(x)) == pytest.approx(56.0)

    def test_integer_rounding_in_solution(self, monkeypatch):
        # The backend may return an integer column a tolerance away from
        # its integer value; the template rounds integer columns only.
        from scipy import optimize

        def fake_milp(*args, **kwargs):
            class Result:
                status = 0
                message = "optimal"
                x = np.array([0.9999999, 0.3])
            return Result()

        monkeypatch.setattr(optimize, "milp", fake_milp)
        builder = ModelBuilder("rounding")
        b = builder.add_binary()
        y = builder.add_variable(0.0, 1.0)
        builder.set_objective({b: 1.0, y: 1.0})
        solution = builder.build().solve()
        assert solution[b] == 1.0
        assert solution[y] == 0.3
        assert solution.objective == 1.3
