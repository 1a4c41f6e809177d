"""LP scaling — the batched warm-started complete-mapping solver engine.

The paper splits pipeline cost into benchmarking time and LP solving time
(Table II); the complete-mapping phase (Algorithm 5 / LPAUX) contains both:
``|instructions| × |resources|`` saturating-kernel measurements and one
constant-size weight problem per instruction.  Both halves fan out over
the same lane-pinned worker processes (:func:`repro.runtime.run_lanes`):
the measurement half as one contiguous chunk of kernels per lane, the
solving half on the batched engine — instructions grouped into
lane-pinned chunks whose lanes keep their template caches and warm-start
memos across chunks.

``test_complete_mapping_wallclock_speedup_skylake`` is the acceptance
bench: it reproduces the real-hardware regime (one microbenchmark costs
wall-clock, as in Table II) via the ``measurement_latency`` knob of
:class:`PortModelBackend` and measures the end-to-end complete-mapping
wall-clock with 4 measurement + 4 LP workers against the fully serial
path, asserting a >= 1.5x speedup with bitwise-identical inferred usages.

``test_lpaux_solver_scaling`` isolates the LP half: cold solves vs
incumbent warm-starts vs lane-pool execution, all bitwise identical with
an invariant solve-request counter, with the warm-start backend-solve
reduction asserted to never lose against cold solving.

Both benches write their numbers into ``benchmarks/results/BENCH_lp.json``
(one section each, merged on disk) so CI can re-check the recorded
speedups without re-running the bench — the regression gate for the
pre-batching engine's recorded 0.95x LPAUX "speedup".
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from repro import PortModelBackend, build_skylake_like_machine, build_small_isa
from repro.palmed import PalmedConfig
from repro.palmed.basic_selection import select_basic_instructions
from repro.palmed.benchmarks import BenchmarkRunner
from repro.palmed.complete_mapping import run_complete_mapping
from repro.palmed.core_mapping import compute_core_mapping
from repro.palmed.quadratic import QuadraticBenchmarks

import pytest

from conftest import RESULTS_DIR, write_result
from record import write_bench_record

LP_WORKERS = 4

#: The deterministic solver counters — identical across every execution
#: path (serial, chunked, lane processes, warm or cold) by contract.
DETERMINISTIC_COUNTERS = ("model_builds", "solves", "lp_chunks")


def _update_bench_record(section: str, payload: dict) -> None:
    """Merge one bench's numbers into ``BENCH_lp.json``.

    The two benches below each own a section; merging through the on-disk
    record lets a partial re-run refresh its section without dropping the
    other's.
    """
    record = {"bench": "lp_scaling", "bitwise_identical": True}
    path = RESULTS_DIR / "BENCH_lp.json"
    if path.exists():
        record.update(json.loads(path.read_text(encoding="utf-8")))
    record[section] = payload
    # Drop the previous write's provenance stamp so this partial re-run is
    # re-stamped with *its* host and time, not the section it kept.
    for stale in ("host_cpus", "hostname", "recorded_at"):
        record.pop(stale, None)
    write_bench_record("BENCH_lp.json", record)


def _lp_bench_config() -> PalmedConfig:
    """Cheap core (heuristic LP2, capped LP1) — LPAUX stays exact."""
    return PalmedConfig(
        n_basic_cap=10,
        max_resources=10,
        lp1_max_iterations=1,
        lp1_time_limit=15.0,
        lp2_mode="heuristic",
        lp2_heuristic_rounds=6,
        milp_time_limit=45.0,
    )


def _build_core(isa_size: int):
    """Run the pipeline up to the core mapping once (shared by the benches)."""
    isa = build_small_isa(isa_size, seed=0)
    machine = build_skylake_like_machine(isa=isa)
    config = _lp_bench_config()
    runner = BenchmarkRunner(PortModelBackend(machine), config)
    instructions = machine.benchmarkable_instructions()
    quadratic = QuadraticBenchmarks(runner, instructions)
    selection = select_basic_instructions(quadratic, config)
    core = compute_core_mapping(runner, selection, config)
    return machine, config, runner, instructions, core


@pytest.fixture(scope="module")
def skl_lp_setup():
    """The small-Skylake machine with a large enough ISA to stress LPAUX."""
    return _build_core(96)


def test_lpaux_solver_scaling(skl_lp_setup):
    """LP half: cold vs warm-started vs lane-pool solving, bitwise identical."""
    machine, config, runner, instructions, core = skl_lp_setup
    cold_config = dataclasses.replace(config, lp_warm_start=False)
    warm_config = dataclasses.replace(config, lp_warm_start=True)

    # Warm the measurement memo so the timed runs below are solve-only.
    run_complete_mapping(runner, instructions, core, cold_config)

    cold = run_complete_mapping(runner, instructions, core, cold_config)
    warm = run_complete_mapping(runner, instructions, core, warm_config)
    lanes = run_complete_mapping(
        runner,
        instructions,
        core,
        dataclasses.replace(warm_config, lp_parallelism=LP_WORKERS),
    )

    # The determinism contract: identical usages, identical request counts.
    assert warm.mapped == cold.mapped
    assert lanes.mapped == cold.mapped
    assert warm.solver_stats.solves == cold.solver_stats.solves
    assert lanes.solver_stats.solves == cold.solver_stats.solves
    assert cold.solver_stats.warm_start_hits == 0
    assert warm.solver_stats.warm_start_hits > 0
    # Template reuse: identically-shaped LPAUX problems rebind one compiled
    # structure instead of rebuilding it per instruction.
    assert cold.solver_stats.model_builds < cold.solver_stats.solves

    warm_speedup = cold.solve_time / warm.solve_time
    lane_speedup = cold.solve_time / lanes.solve_time
    stats = cold.solver_stats
    lines = [
        "=== LPAUX solver scaling (small-Skylake) ===",
        f"instructions solved        : {len(cold.mapped)}",
        f"LP solves / model builds   : {stats.solves} / {stats.model_builds}"
        f"  (template reuses: {stats.template_reuses})",
        f"cold solve wall-clock      : {cold.solve_time:.2f}s "
        f"({stats.backend_solves} backend solves)",
        f"warm-started wall-clock    : {warm.solve_time:.2f}s "
        f"({warm.solver_stats.backend_solves} backend solves, "
        f"{warm.solver_stats.warm_start_hits} memo hits, "
        f"speedup {warm_speedup:.2f}x)",
        f"{LP_WORKERS}-lane wall-clock          : {lanes.solve_time:.2f}s "
        f"({lanes.solver_stats.lp_chunks} chunks, speedup {lane_speedup:.2f}x)",
        f"host cores                 : {os.cpu_count()}",
        "",
        "Usages and solve-request counts are bitwise identical on every path.",
    ]
    write_result("lp_scaling_solver.txt", "\n".join(lines))
    print("\n".join(lines))

    _update_bench_record(
        "solver",
        {
            "instructions_solved": len(cold.mapped),
            "solves": stats.solves,
            "model_builds": stats.model_builds,
            "cold_backend_solves": stats.backend_solves,
            "warm_backend_solves": warm.solver_stats.backend_solves,
            "warm_start_hits": warm.solver_stats.warm_start_hits,
            "lane_chunks": lanes.solver_stats.lp_chunks,
            "cold_solve_wall_s": round(cold.solve_time, 3),
            "warm_solve_wall_s": round(warm.solve_time, 3),
            "lane_solve_wall_s": round(lanes.solve_time, 3),
            "warm_start_speedup": round(warm_speedup, 2),
            "lane_speedup": round(lane_speedup, 2),
        },
    )

    # Warm starts only ever *remove* backend solves; the memo probe is a
    # hash of data already resident, so the warm path must not lose.
    assert warm_speedup >= 1.0, (
        f"warm-started solving slower than cold "
        f"({cold.solve_time:.2f}s -> {warm.solve_time:.2f}s)"
    )
    cores = os.cpu_count() or 1
    if cores >= 4:
        # CPU-bound fan-out only wins when cores exist to run it.
        assert lane_speedup >= 1.2


def test_complete_mapping_wallclock_speedup_skylake(skl_lp_setup):
    """Acceptance bench: >= 1.5x complete-mapping wall-clock with 4+4 workers.

    The serial and parallel runs use fresh backends with a realistic
    per-benchmark measurement latency (the Table II regime, exactly as in
    ``bench_scalability``'s cache-speedup bench), so the phase pays both its
    measurement and its LP cost; the parallel run fans the measurement half
    and the solving half over lane processes (4 measurement lanes + 4 LP
    worker lanes).
    """
    machine, config, _, instructions, core = skl_lp_setup
    latency = 0.02

    def timed_run(parallelism: int, lp_workers: int):
        backend = PortModelBackend(machine, measurement_latency=latency)
        runner = BenchmarkRunner(
            backend,
            dataclasses.replace(
                config, parallelism=parallelism, lp_parallelism=lp_workers
            ),
        )
        start = time.monotonic()
        outcome = run_complete_mapping(runner, instructions, core, runner.config)
        return outcome, time.monotonic() - start

    serial, t_serial = timed_run(parallelism=0, lp_workers=0)
    parallel, t_parallel = timed_run(parallelism=LP_WORKERS, lp_workers=LP_WORKERS)

    assert parallel.mapped == serial.mapped
    assert serial.solver_stats.model_builds < serial.solver_stats.solves
    # The chunk plan is deterministic: one serial chunk, one per lane there.
    assert serial.solver_stats.lp_chunks == 1
    assert parallel.solver_stats.lp_chunks == LP_WORKERS
    assert parallel.solver_stats.solves == serial.solver_stats.solves

    speedup = t_serial / t_parallel
    lines = [
        "=== Complete-mapping wall-clock (small-Skylake, "
        f"measurement_latency={latency}s) ===",
        f"instructions mapped      : {len(serial.mapped)}",
        f"serial wall-clock        : {t_serial:.2f}s  "
        f"(measure {serial.measurement_time:.2f}s + solve {serial.solve_time:.2f}s)",
        f"parallel wall-clock      : {t_parallel:.2f}s  "
        f"(measure {parallel.measurement_time:.2f}s + solve {parallel.solve_time:.2f}s, "
        f"{LP_WORKERS} measurement + {LP_WORKERS} LP workers)",
        f"speedup                  : {speedup:.2f}x",
        f"LP solves / model builds : {serial.solver_stats.solves} / "
        f"{serial.solver_stats.model_builds}",
        "",
        "Inferred usages are bitwise identical on both paths.",
    ]
    write_result("lp_scaling_complete_mapping.txt", "\n".join(lines))
    print("\n".join(lines))

    _update_bench_record(
        "complete_mapping",
        {
            "instructions_mapped": len(serial.mapped),
            "measurement_latency_ms": latency * 1000.0,
            "measurement_workers": LP_WORKERS,
            "lp_workers": LP_WORKERS,
            "serial_wall_s": round(t_serial, 3),
            "parallel_wall_s": round(t_parallel, 3),
            "speedup": round(speedup, 2),
        },
    )

    assert speedup >= 1.5, (
        f"complete mapping with {LP_WORKERS} workers only {speedup:.2f}x faster "
        f"than serial ({t_serial:.2f}s -> {t_parallel:.2f}s)"
    )


def test_lpaux_parallel_identical_small(benchmark, monkeypatch):
    """CI smoke: tiny ISA, every LP worker count bitwise identical + reuse."""
    machine, config, runner, instructions, core = _build_core(18)

    serial = run_complete_mapping(runner, instructions, core, config)
    for workers in (2, LP_WORKERS):
        outcome = run_complete_mapping(
            runner, instructions, core,
            dataclasses.replace(config, lp_parallelism=workers),
        )
        assert outcome.mapped == serial.mapped
        assert outcome.solver_stats.solves == serial.solver_stats.solves
    assert serial.solver_stats.model_builds < serial.solver_stats.solves

    # Chunked in-process emulation (this process pinned to one CPU)
    # reproduces a lane run's counters exactly.
    chunked_config = dataclasses.replace(config, lp_parallelism=2, lp_chunk_size=3)
    lanes = run_complete_mapping(runner, instructions, core, chunked_config)
    with monkeypatch.context() as pinned:
        pinned.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        chunked = run_complete_mapping(runner, instructions, core, chunked_config)
    assert chunked.solver_stats.lp_workers_effective == 1
    assert chunked.mapped == serial.mapped
    for name in DETERMINISTIC_COUNTERS + ("warm_start_hits", "rebinds"):
        assert getattr(chunked.solver_stats, name) == getattr(
            lanes.solver_stats, name
        ), name

    repeat = benchmark(
        lambda: run_complete_mapping(runner, instructions, core, config).mapped
    )
    assert repeat == serial.mapped
