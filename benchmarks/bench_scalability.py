"""Scalability — benchmark count, solving effort and measurement-layer speedups.

The paper's scalability argument: PALMED's benchmark count grows
quadratically with the number of instructions during selection and linearly
during the complete-mapping phase, whereas exhaustive approaches are
combinatorial and PMEvo's training set over pairs of *all* instructions
grows quadratically with no trimming.  This bench measures the number of
generated microbenchmarks and the throughput-measurement cost for increasing
ISA sizes.

``test_pipeline_cache_speedup`` additionally reproduces the real-hardware
regime (where one microbenchmark costs wall-clock time and benchmarking
dominates the end-to-end pipeline, as in Table II) via the
``measurement_latency`` knob of :class:`PortModelBackend`, and measures the
end-to-end speedup delivered by the batched measurement layer: lane-process
fan-out for cold runs, persistent :class:`~repro.measure.MeasurementCache`
hits for warm runs — with bit-identical inferred mappings throughout.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro import (
    MeasurementCache,
    PortModelBackend,
    build_skylake_like_machine,
    build_small_isa,
    build_toy_machine,
)
from repro.palmed import Palmed, PalmedConfig
from repro.palmed.benchmarks import BenchmarkRunner
from repro.palmed.quadratic import QuadraticBenchmarks

from conftest import write_result

ISA_SIZES = (12, 24, 36, 48)


def _quadratic_count(size: int) -> tuple[int, int]:
    isa = build_small_isa(size, seed=0)
    machine = build_skylake_like_machine(isa=isa)
    backend = PortModelBackend(machine)
    runner = BenchmarkRunner(backend, PalmedConfig())
    QuadraticBenchmarks(runner, machine.benchmarkable_instructions())
    return len(machine.benchmarkable_instructions()), backend.measurement_count


def test_quadratic_benchmark_growth(benchmark):
    """Measure how the selection-phase benchmark count grows with the ISA."""
    counts = {}
    for size in ISA_SIZES[:-1]:
        counts[size] = _quadratic_count(size)
    counts[ISA_SIZES[-1]] = benchmark(lambda: _quadratic_count(ISA_SIZES[-1]))

    lines = ["=== Selection-phase (quadratic) benchmark growth ===",
             f"{'ISA size':>10} {'benchmarkable':>14} {'microbenchmarks':>16}"]
    for size, (benchmarkable, measured) in counts.items():
        lines.append(f"{size:>10} {benchmarkable:>14} {measured:>16}")
    lines.append("")
    lines.append("Growth is ~n^2/2 (pair benchmarks), matching the paper's "
                 "'quadratic benchmarks' stage; the LP stages do not grow with n.")
    write_result("scalability_quadratic.txt", "\n".join(lines))

    sizes = sorted(counts)
    smallest, largest = counts[sizes[0]][1], counts[sizes[-1]][1]
    ratio = largest / smallest
    size_ratio = (counts[sizes[-1]][0] / counts[sizes[0]][0]) ** 2
    # Quadratic growth: the benchmark count ratio tracks the squared size ratio.
    assert 0.3 * size_ratio <= ratio <= 3.0 * size_ratio


def test_measurement_throughput(benchmark, skl_backend, skl_machine):
    """Raw speed of the measurement substrate (kernels measured per second)."""
    from repro import Microkernel
    import random

    rng = random.Random(0)
    instructions = skl_machine.benchmarkable_instructions()
    kernels = [
        Microkernel({rng.choice(instructions): rng.randint(1, 4) for _ in range(3)})
        for _ in range(200)
    ]

    def measure_all():
        return [skl_backend.ipc(kernel) for kernel in kernels]

    values = benchmark(measure_all)
    assert len(values) == len(kernels)


# -- measurement-layer speedup (batching + parallelism + caching) -----------
#: Simulated per-microbenchmark harness cost (seconds).  On real hardware a
#: measurement costs 10s of ms to seconds; these values keep the bench fast
#: while preserving the benchmarking-dominated regime of Table II.
SPEEDUP_SCENARIOS = {
    "toy": dict(latency=0.10),
    "skylake": dict(latency=0.05),
}

#: Cheap LP settings so the (deliberately slowed) measurements dominate,
#: exactly as they do on real hardware.
SPEEDUP_CONFIG = PalmedConfig(
    n_basic_cap=8,
    max_resources=8,
    lp1_max_iterations=1,
    lp1_time_limit=10.0,
    lp2_mode="heuristic",
    lpaux_mode="heuristic",
    milp_time_limit=20.0,
)

SPEEDUP_WORKERS = 4


def _speedup_machine(kind: str):
    if kind == "toy":
        return build_toy_machine()
    return build_skylake_like_machine(isa=build_small_isa(16, seed=0))


@pytest.mark.parametrize("kind", sorted(SPEEDUP_SCENARIOS), ids=sorted(SPEEDUP_SCENARIOS))
def test_pipeline_cache_speedup(tmp_path, kind):
    """End-to-end pipeline: sequential seed path vs 4 workers + warm cache.

    Acceptance criterion: >= 2x end-to-end speedup with identical inferred
    mappings (the differential suite proves the general property; this
    bench re-checks it on the exact runs being timed).
    """
    latency = SPEEDUP_SCENARIOS[kind]["latency"]
    machine = _speedup_machine(kind)
    instructions = machine.benchmarkable_instructions()
    cache_path = tmp_path / f"measurements-{kind}.json"

    def run(config, cache=None):
        backend = PortModelBackend(machine, measurement_latency=latency)
        start = time.monotonic()
        result = Palmed(backend, instructions, config, cache=cache).run()
        return result, time.monotonic() - start

    # 1. The sequential seed path: no parallelism, no cache.
    sequential, t_sequential = run(SPEEDUP_CONFIG)

    # 2. Cold run with 4 workers, populating the on-disk cache.
    parallel_config = dataclasses.replace(
        SPEEDUP_CONFIG, parallelism=SPEEDUP_WORKERS, cache_path=str(cache_path)
    )
    cold, t_cold = run(parallel_config)

    # 3. Warm run: same configuration, cache already populated.
    warm_cache = MeasurementCache(cache_path)
    warm, t_warm = run(parallel_config, cache=warm_cache)

    assert cold.mapping.to_dict() == sequential.mapping.to_dict()
    assert warm.mapping.to_dict() == sequential.mapping.to_dict()
    assert warm.stats.num_benchmarks_measured == 0
    assert warm.stats.num_benchmarks_cached == sequential.stats.num_benchmarks

    speedup_cold = t_sequential / t_cold
    speedup_warm = t_sequential / t_warm
    lines = [
        f"=== Measurement-layer speedup ({kind}: {machine.name}, "
        f"{len(instructions)} instructions) ===",
        f"simulated per-benchmark latency : {1000.0 * latency:.0f} ms",
        f"generated microbenchmarks       : {sequential.stats.num_benchmarks}",
        f"sequential seed path            : {t_sequential:6.2f} s",
        f"cold,  {SPEEDUP_WORKERS} workers              : {t_cold:6.2f} s "
        f"({speedup_cold:.1f}x)",
        f"warm cache, {SPEEDUP_WORKERS} workers         : {t_warm:6.2f} s "
        f"({speedup_warm:.1f}x)",
        f"warm run measured / cached      : {warm.stats.num_benchmarks_measured}"
        f" / {warm.stats.num_benchmarks_cached}",
        f"cache-hit-rate                  : {100.0 * warm_cache.hit_rate:.1f}% "
        f"({warm_cache.hits} hits / {warm_cache.misses} misses)",
        "",
        "Identical PalmedResult mappings across all three runs (verified).",
    ]
    write_result(f"scalability_cache_speedup_{kind}.txt", "\n".join(lines))
    print("\n".join(lines))

    assert speedup_warm >= 2.0, (
        f"warm-cache run only {speedup_warm:.2f}x faster than the sequential "
        f"seed path ({t_sequential:.2f}s -> {t_warm:.2f}s)"
    )


def test_lpaux_cost_is_per_instruction_constant(benchmark, skl_palmed, skl_backend):
    """The complete-mapping phase costs O(1) LPs per instruction (linear overall)."""
    from repro.palmed.complete_mapping import map_single_instruction
    from repro.palmed.benchmarks import BenchmarkRunner

    config = PalmedConfig()
    runner = BenchmarkRunner(skl_backend, config)
    unmapped_pool = [
        inst for inst in skl_palmed.mapping.instructions
        if inst not in set(skl_palmed.selection.basic)
    ]
    instruction = unmapped_pool[0]
    rho = benchmark(
        lambda: map_single_instruction(runner, instruction, skl_palmed.core, config)
    )
    assert isinstance(rho, dict)
