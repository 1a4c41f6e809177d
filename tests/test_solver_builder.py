"""Tests for the solver layer: ModelBuilder, ModelTemplate, statuses, stats.

The contract under test: built models reach the known optima of small
LPs and MILPs (including analytic optima over random instances),
rebinding a template's data is equivalent to building the model fresh
(bitwise-equal solutions), backend statuses map to the documented
outcomes, and the statistics layer reports template reuse as
``model_builds`` < ``solves``.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import (
    InfeasibleError,
    ModelBuilder,
    SolverError,
    SolveStats,
    SolveStatus,
    UnboundedError,
    reset_solver_stats,
    use_stats,
)
from repro.solvers import stats as solver_stats_module
from repro.solvers.status import map_status


class TestModelBuilder:
    def test_simple_lp_matches_model_front_end(self):
        # max 2x + 3y  s.t.  x + 2y <= 4, 3x + y <= 6: the optimum sits
        # at the vertex x = 1.6, y = 1.2.
        builder = ModelBuilder("lp")
        x = builder.add_variable(0.0)
        y = builder.add_variable(0.0)
        builder.add_row_entries([x, y], [1.0, 2.0], hi=4.0)
        builder.add_row_entries([x, y], [3.0, 1.0], hi=6.0)
        builder.set_objective({x: 2.0, y: 3.0}, maximize=True)
        solution = builder.build().solve()
        assert solution.is_optimal
        assert solution.objective == pytest.approx(6.8, abs=1e-6)
        assert solution[x] == pytest.approx(1.6, abs=1e-6)
        assert solution[y] == pytest.approx(1.2, abs=1e-6)

    def test_equality_row_minimization(self):
        # min 3x + y  s.t.  x + y == 10: all mass on the cheaper y.
        builder = ModelBuilder("equality")
        x = builder.add_variable(0.0)
        y = builder.add_variable(0.0)
        builder.add_row_entries([x, y], [1.0, 1.0], lo=10.0, hi=10.0)
        builder.set_objective({x: 3.0, y: 1.0})
        solution = builder.build().solve()
        assert solution.objective == pytest.approx(10.0)
        assert solution[x] == pytest.approx(0.0, abs=1e-9)
        assert solution[y] == pytest.approx(10.0)

    def test_binary_knapsack(self):
        values = [10, 13, 18, 31, 7, 15]
        weights = [2, 3, 4, 5, 1, 4]
        builder = ModelBuilder("knapsack")
        items = [builder.add_binary() for _ in values]
        builder.add_row_entries(items, [float(w) for w in weights], hi=10.0)
        builder.set_objective(
            {col: float(v) for col, v in zip(items, values)}, maximize=True
        )
        solution = builder.build().solve()
        assert solution.objective == pytest.approx(56.0)
        chosen = [i for i, col in enumerate(items) if solution[col] > 0.5]
        assert chosen == [2, 3, 4]

    def test_infeasible_and_unbounded_raise(self):
        builder = ModelBuilder("infeasible")
        x = builder.add_variable(0.0, 1.0)
        builder.add_row_entries([x], [1.0], lo=2.0)
        builder.set_objective({x: 1.0})
        with pytest.raises(InfeasibleError):
            builder.build().solve()

        builder = ModelBuilder("unbounded")
        x = builder.add_variable(0.0)
        builder.set_objective({x: 1.0}, maximize=True)
        with pytest.raises(UnboundedError):
            builder.build().solve()

    def test_empty_model_solves_trivially(self):
        solution = ModelBuilder("empty").build().solve()
        assert solution.is_optimal
        assert solution.objective == 0.0

    def test_duplicate_entries_rejected(self):
        builder = ModelBuilder("dup")
        x = builder.add_variable()
        row = builder.add_row(hi=1.0)
        builder.add_entry(row, x, 1.0)
        builder.add_entry(row, x, 2.0)
        with pytest.raises(SolverError):
            builder.build()

    def test_invalid_bounds_rejected(self):
        builder = ModelBuilder("bounds")
        with pytest.raises(SolverError):
            builder.add_variable(lb=2.0, ub=1.0)


class TestModelTemplate:
    def _capacity_template(self):
        """max x + y  s.t.  a*x + b*y <= C with rebindable a, b, C."""
        builder = ModelBuilder("capacity")
        x = builder.add_variable(0.0)
        y = builder.add_variable(0.0)
        row = builder.add_row(hi=4.0)
        h_x = builder.add_entry(row, x, 1.0)
        h_y = builder.add_entry(row, y, 2.0)
        builder.set_objective({x: 1.0, y: 1.0}, maximize=True)
        return builder.build(), (x, y, row, h_x, h_y)

    def test_rebinding_matches_fresh_build(self):
        template, (x, y, row, h_x, h_y) = self._capacity_template()
        first = template.solve()
        assert first.objective == pytest.approx(4.0)

        # Rebind coefficients and RHS, re-solve the same structure.
        template.set_entry(h_x, 2.0)
        template.set_entry(h_y, 1.0)
        template.set_row_bounds(row, -math.inf, 6.0)
        rebound = template.solve()

        fresh = ModelBuilder("fresh")
        fx = fresh.add_variable(0.0)
        fy = fresh.add_variable(0.0)
        fresh.add_row_entries([fx, fy], [2.0, 1.0], hi=6.0)
        fresh.set_objective({fx: 1.0, fy: 1.0}, maximize=True)
        reference = fresh.build().solve()

        assert rebound.objective == reference.objective
        assert list(rebound.x) == list(reference.x)
        assert template.solve_count == 2

    def test_variable_bound_and_objective_rebinding(self):
        builder = ModelBuilder("box")
        x = builder.add_variable(0.0, 1.0)
        builder.set_objective({x: 1.0}, maximize=True)
        template = builder.build()
        assert template.solve().objective == pytest.approx(1.0)
        template.set_variable_bounds(x, 0.0, 5.0)
        assert template.solve().objective == pytest.approx(5.0)
        template.set_objective_coeff(x, 2.0)
        assert template.solve().objective == pytest.approx(10.0)

    def test_integer_values_rounded(self):
        builder = ModelBuilder("int")
        b = builder.add_binary()
        builder.add_row_entries([b], [1.0], lo=0.5)
        builder.set_objective({b: 1.0})
        solution = builder.build().solve()
        assert solution[b] == 1.0


class TestSolveStats:
    def test_builds_and_solves_recorded(self):
        stats = SolveStats()
        with use_stats(stats):
            builder = ModelBuilder("stats")
            x = builder.add_variable(0.0, 2.0)
            builder.set_objective({x: 1.0}, maximize=True)
            template = builder.build()
            template.solve()
            template.solve()
        assert stats.model_builds == 1
        assert stats.solves == 2
        assert stats.solve_time >= 0.0

    def test_merge_and_copy(self):
        a = SolveStats(model_builds=1, solves=2, build_time=0.5, solve_time=1.5)
        b = a.copy()
        b.merge(SolveStats(model_builds=2, solves=3, build_time=0.25, solve_time=0.5))
        assert (b.model_builds, b.solves) == (3, 5)
        assert b.build_time == pytest.approx(0.75)
        assert (a.model_builds, a.solves) == (1, 2)
        assert a.as_dict()["solves"] == 2

    def test_merge_semantics_across_workers(self):
        # Two records merged: counters and times accumulate; the MIP-gap
        # bound folds with max (a bound, not a quantity).
        a = SolveStats(
            model_builds=1,
            solves=4,
            rebinds=3,
            limit_solves=1,
            worst_mip_gap=0.25,
            build_time=0.5,
            solve_time=1.5,
            rebind_time=0.1,
        )
        b = SolveStats(
            model_builds=2,
            solves=3,
            rebinds=1,
            limit_solves=0,
            worst_mip_gap=0.75,
            build_time=0.25,
            solve_time=0.5,
            rebind_time=0.2,
        )
        merged = a.copy().merge(b)
        assert merged.model_builds == 3
        assert merged.solves == 7
        assert merged.rebinds == 4
        assert merged.limit_solves == 1
        assert merged.worst_mip_gap == 0.75
        assert merged.build_time == pytest.approx(0.75)
        assert merged.rebind_time == pytest.approx(0.3)
        # The originals are untouched (merge works on the copy).
        assert a.worst_mip_gap == 0.25 and b.rebinds == 1

    def test_every_field_copied_and_reset_in_place(self):
        # One field list: a record populated in every field survives copy
        # and as_dict whole, and reset_solver_stats zeroes every field of
        # the live global record without replacing it.
        names = [item.name for item in dataclasses.fields(SolveStats)]
        full = SolveStats(**{name: index + 1 for index, name in enumerate(names)})
        assert dataclasses.asdict(full.copy()) == dataclasses.asdict(full)
        assert full.copy() is not full
        assert full.as_dict() == {name: index + 1 for index, name in enumerate(names)}

        live = solver_stats_module._GLOBAL
        try:
            live.merge(full)
            reset_solver_stats()
            assert solver_stats_module._GLOBAL is live
            assert dataclasses.asdict(live) == dataclasses.asdict(SolveStats())
        finally:
            reset_solver_stats()


class TestStatusMapping:
    def test_status_codes(self):
        assert map_status(0) is SolveStatus.OPTIMAL
        assert map_status(1) is SolveStatus.LIMIT
        assert map_status(2) is SolveStatus.INFEASIBLE
        assert map_status(3) is SolveStatus.UNBOUNDED
        assert map_status(99) is SolveStatus.ERROR


class TestStatusHandling:
    def _one_var_milp(self):
        builder = ModelBuilder("limit")
        x = builder.add_variable(0.0, 3.0, integer=True)
        builder.add_row_entries([x], [1.0], hi=2.5)
        builder.set_objective({x: 1.0}, maximize=True)
        return builder.build(), x

    def test_limit_status_returns_incumbent(self, monkeypatch):
        import numpy as np
        from scipy import optimize

        def fake_milp(*args, **kwargs):
            class Result:
                status = 1  # iteration/time limit
                message = "limit reached"
                x = np.array([2.0])
            return Result()

        monkeypatch.setattr(optimize, "milp", fake_milp)
        template, x = self._one_var_milp()
        solution = template.solve(time_limit=1.0)
        assert solution.status is SolveStatus.LIMIT
        assert not solution.is_optimal
        assert solution[x] == 2.0

    def test_limit_without_incumbent_raises(self, monkeypatch):
        from scipy import optimize

        def fake_milp(*args, **kwargs):
            class Result:
                status = 1
                message = "limit reached, no incumbent"
                x = None
            return Result()

        monkeypatch.setattr(optimize, "milp", fake_milp)
        template, _ = self._one_var_milp()
        with pytest.raises(SolverError):
            template.solve(time_limit=1.0)

    def test_error_status_raises(self, monkeypatch):
        from scipy import optimize

        def fake_milp(*args, **kwargs):
            class Result:
                status = 4  # "other" -> ERROR
                message = "numerical trouble"
                x = None
            return Result()

        monkeypatch.setattr(optimize, "milp", fake_milp)
        template, _ = self._one_var_milp()
        with pytest.raises(SolverError):
            template.solve()


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.floats(min_value=1.0, max_value=50.0),
        coefficients=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=6
        ),
    )
    def test_single_constraint_lp_optimum_is_analytic(self, capacity, coefficients):
        """max Σ x_i s.t. Σ c_i x_i <= C equals C / min(c_i) (put all mass on min)."""
        builder = ModelBuilder("single-row")
        columns = [builder.add_variable(0.0) for _ in coefficients]
        builder.add_row_entries(columns, coefficients, hi=capacity)
        builder.set_objective({col: 1.0 for col in columns}, maximize=True)
        solution = builder.build().solve()
        assert solution.objective == pytest.approx(capacity / min(coefficients), rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        bounds=st.lists(
            st.tuples(
                st.floats(min_value=-5.0, max_value=5.0),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_box_lp_optimum_is_sum_of_upper_bounds(self, bounds):
        builder = ModelBuilder("box")
        columns = []
        expected = 0.0
        for lower, width in bounds:
            upper = lower + width
            columns.append(builder.add_variable(lower, upper))
            expected += upper
        builder.set_objective({col: 1.0 for col in columns}, maximize=True)
        solution = builder.build().solve()
        assert solution.objective == pytest.approx(expected, abs=1e-6)
        assert math.isfinite(solution.objective)
