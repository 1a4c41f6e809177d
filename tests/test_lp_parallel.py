"""Tests for the LPAUX solving half of the complete-mapping phase.

LPAUX solves every per-instruction problem in closed form, in-process:
no solver backend, no model build, no template rebind.  These tests pin
that accounting and the Table II split it feeds into a ``PalmedResult``.
"""

from __future__ import annotations

import pytest

from repro import PortModelBackend, build_skylake_like_machine, build_small_isa
from repro.palmed import Palmed, PalmedConfig
from repro.palmed.basic_selection import select_basic_instructions
from repro.palmed.benchmarks import BenchmarkRunner
from repro.palmed.complete_mapping import run_complete_mapping
from repro.palmed.core_mapping import compute_core_mapping
from repro.palmed.quadratic import QuadraticBenchmarks
from repro.solvers import SolveStats, use_stats


@pytest.fixture(scope="module")
def lpaux_setup():
    """A machine with enough non-basic instructions to exercise LPAUX."""
    isa = build_small_isa(18, seed=0)
    machine = build_skylake_like_machine(isa=isa)
    config = PalmedConfig(
        n_basic_cap=6,
        max_resources=8,
        lp1_max_iterations=1,
        lp1_time_limit=15.0,
        lp2_mode="exact",
        milp_time_limit=30.0,
    )
    runner = BenchmarkRunner(PortModelBackend(machine), config)
    instructions = machine.benchmarkable_instructions()
    quadratic = QuadraticBenchmarks(runner, instructions)
    selection = select_basic_instructions(quadratic, config)
    core = compute_core_mapping(runner, selection, config)
    return machine, config, runner, instructions, core


@pytest.fixture(scope="module")
def serial_outcome(lpaux_setup):
    _, config, runner, instructions, core = lpaux_setup
    return run_complete_mapping(runner, instructions, core, config)


@pytest.fixture(scope="module")
def lpaux_sink(lpaux_setup):
    """A repeat of the phase with every solver event recorded into a sink."""
    _, config, runner, instructions, core = lpaux_setup
    sink = SolveStats()
    with use_stats(sink):
        outcome = run_complete_mapping(runner, instructions, core, config)
    return outcome, sink


class TestCompleteMappingDifferential:
    def test_lpaux_maps_instructions(self, serial_outcome, lpaux_sink):
        # Sanity: the fixture actually exercises the phase under test, the
        # closed form answers every problem without a solver, and a repeat
        # reproduces the mapping bitwise.
        outcome, sink = lpaux_sink
        assert len(serial_outcome.mapped) > 0
        assert outcome.mapped == serial_outcome.mapped
        assert sink.solves == 0

    def test_template_reuse_reported(self, lpaux_sink):
        # LPAUX builds, rebinds and solves no solver model at all.
        _, sink = lpaux_sink
        assert sink.model_builds == 0
        assert sink.rebinds == 0
        assert sink.solves == 0

    def test_measurement_vs_solve_split(self, lpaux_setup, serial_outcome):
        # All LPAUX benchmarks were prefetched by the fixture's first run,
        # so a repeat is solve-dominated; both halves must be non-negative
        # and the sum bounded by a fresh wall clock measurement elsewhere.
        assert serial_outcome.measurement_time >= 0.0
        assert serial_outcome.solve_time > 0.0


class TestPipelineDifferential:
    """LPAUX's accounting as it surfaces in a full ``PalmedResult``."""

    @pytest.fixture(scope="class")
    def setup(self):
        isa = build_small_isa(18, seed=0)
        machine = build_skylake_like_machine(isa=isa)
        config = PalmedConfig(
            n_basic_cap=6,
            max_resources=8,
            lp1_max_iterations=1,
            lp1_time_limit=15.0,
            lp2_mode="exact",
            milp_time_limit=30.0,
        )
        return machine, config

    @pytest.fixture(scope="class")
    def sequential_result(self, setup):
        machine, config = setup
        backend = PortModelBackend(machine)
        return Palmed(backend, machine.benchmarkable_instructions(), config).run()

    def test_stage_time_split_accounts_lpaux_measurements(self, sequential_result):
        stats = sequential_result.stats
        # The Table II split: both halves populated, solver stats surfaced.
        assert stats.benchmarking_time > 0.0
        assert stats.lp_time > 0.0
        assert stats.lp_solves > 0
        assert stats.lp_model_builds > 0
        assert stats.lp_solve_time > 0.0
        # LP2's template bind counts as a rebind.
        assert stats.lp_rebinds > 0
        rows = dict(stats.as_table_rows())
        assert rows["  LP solves"] == str(stats.lp_solves)
        assert rows["  LP model builds"] == str(stats.lp_model_builds)
        assert rows["  LP rebinds"] == str(stats.lp_rebinds)
