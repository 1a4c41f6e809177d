"""Differential tests for the parallel LPAUX solving path.

Mirror of ``tests/test_measure_parallel.py`` for the solver side: *how* the
per-instruction complete-mapping problems are executed — in-process loop or
chunked over worker processes — must never change a single bit of the
inferred usages, and therefore never change a ``PalmedResult``.  Every
comparison below uses ``==`` on floats (bitwise equality), not tolerances.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro import PortModelBackend, build_skylake_like_machine, build_small_isa
from repro.palmed import Palmed, PalmedConfig
from repro.palmed.basic_selection import select_basic_instructions
from repro.palmed.benchmarks import BenchmarkRunner
from repro.palmed.complete_mapping import run_complete_mapping
from repro.palmed.core_mapping import compute_core_mapping
from repro.palmed.quadratic import QuadraticBenchmarks

LP_WORKER_COUNTS = (0, 1, 2, 4)


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


class TestCompleteMappingDifferential:
    def test_lpaux_maps_instructions(self, serial_outcome):
        # Sanity: the fixture actually exercises the phase under test,
        # and the closed form answers every problem without a solver.
        assert len(serial_outcome.mapped) > 0
        assert serial_outcome.solver_stats.solves == 0
        assert serial_outcome.solver_stats.backend_solves == 0

    @pytest.mark.parametrize("workers", LP_WORKER_COUNTS)
    def test_all_worker_counts_bitwise_identical(self, lpaux_setup, serial_outcome, workers):
        _, config, runner, instructions, core = lpaux_setup
        outcome = run_complete_mapping(
            runner,
            instructions,
            core,
            dataclasses.replace(config, lp_parallelism=workers),
        )
        assert outcome.mapped == serial_outcome.mapped

    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    def test_chunk_size_does_not_matter(self, lpaux_setup, serial_outcome, chunk_size):
        _, config, runner, instructions, core = lpaux_setup
        outcome = run_complete_mapping(
            runner,
            instructions,
            core,
            dataclasses.replace(config, lp_parallelism=2, lp_chunk_size=chunk_size),
        )
        assert outcome.mapped == serial_outcome.mapped

    def test_template_reuse_reported(self, serial_outcome):
        # LPAUX builds and rebinds no solver model: the whole serial phase
        # is one chunk of closed-form solves.
        stats = serial_outcome.solver_stats
        assert stats.model_builds == 0
        assert stats.rebinds == 0
        assert stats.lp_chunks == 1

    def test_measurement_vs_solve_split(self, lpaux_setup, serial_outcome):
        # All LPAUX benchmarks were prefetched by the fixture's first run,
        # so a repeat is solve-dominated; both halves must be non-negative
        # and the sum bounded by a fresh wall clock measurement elsewhere.
        assert serial_outcome.measurement_time >= 0.0
        assert serial_outcome.solve_time > 0.0


class TestWarmStartDifferential:
    """Cold vs warm solves: identical mapping, identical request counters."""

    def test_cold_and_warm_runs_bitwise_identical(self, lpaux_setup):
        _, config, runner, instructions, core = lpaux_setup
        cold = run_complete_mapping(
            runner,
            instructions,
            core,
            dataclasses.replace(config, lp_warm_start=False),
        )
        warm = run_complete_mapping(
            runner,
            instructions,
            core,
            dataclasses.replace(config, lp_warm_start=True),
        )
        assert warm.mapped == cold.mapped
        # ``solves`` counts requests (a memo hit counts too) and the chunk
        # layout is identical, so every deterministic counter matches.
        assert warm.solver_stats.solves == cold.solver_stats.solves
        assert warm.solver_stats.model_builds == cold.solver_stats.model_builds
        assert warm.solver_stats.rebinds == cold.solver_stats.rebinds
        assert warm.solver_stats.lp_chunks == cold.solver_stats.lp_chunks
        # LPAUX calls no solver, so the memo has nothing to answer.
        assert cold.solver_stats.warm_start_hits == 0
        assert warm.solver_stats.warm_start_hits == 0


class TestChunkedExecutionDifferential:
    """The chunk layout is planned, not scheduled: counters are exact."""

    def test_serial_run_is_one_chunk(self, serial_outcome):
        assert serial_outcome.solver_stats.lp_chunks == 1
        # lp_parallelism=0 means "in-process": no worker lanes requested.
        assert serial_outcome.solver_stats.lp_workers_requested == 0
        assert serial_outcome.solver_stats.lp_workers_effective == 0

    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    def test_solve_requests_invariant_across_layouts(
        self, lpaux_setup, serial_outcome, chunk_size
    ):
        _, config, runner, instructions, core = lpaux_setup
        chunked = run_complete_mapping(
            runner,
            instructions,
            core,
            dataclasses.replace(config, lp_parallelism=2, lp_chunk_size=chunk_size),
        )
        assert chunked.mapped == serial_outcome.mapped
        assert chunked.solver_stats.solves == serial_outcome.solver_stats.solves

    def test_real_lanes_and_emulation_agree_exactly(self, lpaux_setup, monkeypatch):
        _, config, runner, instructions, core = lpaux_setup
        lanes_config = dataclasses.replace(config, lp_parallelism=4, lp_chunk_size=2)
        # Real lane processes wherever this process may use two CPUs ...
        real = run_complete_mapping(runner, instructions, core, lanes_config)
        # ... and the in-process emulation of the *same* requested layout
        # once the process is pinned to one CPU.  Both paths must agree on
        # the mapping and on every deterministic counter.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        emulated = run_complete_mapping(runner, instructions, core, lanes_config)
        assert emulated.solver_stats.lp_workers_effective == 1
        assert real.mapped == emulated.mapped
        for name in ("model_builds", "solves", "warm_start_hits", "rebinds", "lp_chunks"):
            assert getattr(real.solver_stats, name) == getattr(
                emulated.solver_stats, name
            ), name
        assert real.solver_stats.lp_chunks > 1
        assert real.solver_stats.lp_workers_requested == 4
        assert emulated.solver_stats.lp_workers_requested == 4

    def test_single_cpu_affinity_solves_in_process(self, lpaux_setup, monkeypatch):
        # Host sizing counts the CPUs this process may run on, not every
        # CPU of the host: pinned to one CPU, two requested lanes run as
        # the in-process emulation of the same two-lane layout.
        _, config, runner, instructions, core = lpaux_setup
        lanes_config = dataclasses.replace(config, lp_parallelism=2)
        unpinned = run_complete_mapping(runner, instructions, core, lanes_config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pinned = run_complete_mapping(runner, instructions, core, lanes_config)
        assert pinned.solver_stats.lp_workers_requested == 2
        assert pinned.solver_stats.lp_workers_effective == 1
        assert pinned.mapped == unpinned.mapped
        for name in ("model_builds", "solves", "warm_start_hits", "rebinds", "lp_chunks"):
            assert getattr(pinned.solver_stats, name) == getattr(
                unpinned.solver_stats, name
            ), name

    def test_chunked_counters_repeatable(self, lpaux_setup):
        _, config, runner, instructions, core = lpaux_setup
        chunked_config = dataclasses.replace(config, lp_parallelism=3, lp_chunk_size=2)
        first = run_complete_mapping(runner, instructions, core, chunked_config)
        second = run_complete_mapping(runner, instructions, core, chunked_config)
        assert first.mapped == second.mapped
        for name in ("model_builds", "solves", "warm_start_hits", "rebinds", "lp_chunks"):
            assert getattr(first.solver_stats, name) == getattr(
                second.solver_stats, name
            ), name


class TestPipelineDifferential:
    """The acceptance check: lp_parallelism never changes a PalmedResult."""

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

    @pytest.mark.parametrize("workers", [2])
    def test_parallel_lpaux_matches_sequential(self, setup, sequential_result, workers):
        machine, config = setup
        parallel_config = dataclasses.replace(config, lp_parallelism=workers)
        parallel = Palmed(
            PortModelBackend(machine),
            machine.benchmarkable_instructions(),
            parallel_config,
        ).run()
        assert parallel.mapping.to_dict() == sequential_result.mapping.to_dict()
        assert parallel.stats.num_instructions_mapped == (
            sequential_result.stats.num_instructions_mapped
        )
        # Identical predictions on concrete kernels, not just equal tables.
        from repro import Microkernel

        for instruction in machine.benchmarkable_instructions()[:8]:
            kernel = Microkernel.single(instruction, 3)
            if parallel.supports(instruction):
                assert parallel.predict_ipc(kernel) == sequential_result.predict_ipc(kernel)

    def test_stage_time_split_accounts_lpaux_measurements(self, sequential_result):
        stats = sequential_result.stats
        # The Table II split: both halves populated, solver stats surfaced.
        assert stats.benchmarking_time > 0.0
        assert stats.lp_time > 0.0
        assert stats.lp_solves > 0
        assert stats.lp_model_builds > 0
        assert stats.lp_solve_time > 0.0
        # Batched-engine attribution: exact LP2 solves once, so the memo
        # has no repeat to answer; LPAUX ran as at least one chunk, and
        # LP2's template bind counts as a rebind.
        assert stats.lp_warm_start_hits == 0
        assert stats.lp_chunks >= 1
        assert stats.lp_rebinds > 0
        rows = dict(stats.as_table_rows())
        assert rows["  LP solves"] == str(stats.lp_solves)
        assert rows["  LP model builds"] == str(stats.lp_model_builds)
        assert rows["  LP warm-start hits"] == str(stats.lp_warm_start_hits)
        assert rows["  LP rebinds / chunks"] == (
            f"{stats.lp_rebinds} / {stats.lp_chunks}"
        )
