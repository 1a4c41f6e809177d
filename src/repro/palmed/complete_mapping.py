"""Complete mapping — LPAUX (Algorithm 5 of the paper).

Once the core mapping is known, every remaining instruction is mapped
independently: the instruction is mixed with the saturating kernel of each
resource (scaled by ``L`` so the resource stays the bottleneck), the
resulting benchmarks are measured, and a small weight problem with the core
edges *frozen* recovers the instruction's usage of every resource.  Because
each instruction is handled by its own constant-size problem, this phase
scales linearly with the ISA — the key to mapping thousands of instructions.

Execution model
---------------
The phase splits into a *measurement* half and a *solving* half, and both
are batched:

* every saturating benchmark and singleton is prefetched in one batch
  through the measurement layer (parallel dispatch + persistent cache,
  per ``PalmedConfig.parallelism`` / ``cache_path``);
* the per-instruction weight problems — independent and identically
  shaped — are grouped into contiguous *chunks* (``lp_chunk_size``,
  auto-sized to one chunk per requested lane) and executed on the
  batched solver engine through the shared offline fan-out,
  :func:`repro.runtime.run_lanes`: chunk ``i`` is pinned to worker lane
  ``i % lp_parallelism``, each lane is one long-lived process whose
  :class:`~repro.palmed.lp2_weights.WeightModelCache` — compiled
  templates plus warm-start memos — persists across all of that lane's
  chunks.  A host that cannot run lane processes, or a process allowed
  on a single CPU (LPAUX is CPU-bound, so fan-out there buys nothing),
  executes the *identical* lane-pinned layout in-process
  (:func:`repro.runtime.run_chunks_in_process`).

Both halves are bitwise-deterministic: chunk layout and lane pinning are
planned from the requested configuration (never from host sizing or
scheduling), so the inferred usages *and* the deterministic solver
counters — solve requests, model builds, warm-start hits, chunk count —
are identical for every worker count, chunk size, warm-start setting and
execution path (see ``tests/test_lp_parallel.py``).
:class:`CompleteMappingOutcome` reports the measurement/solve wall clocks
separately so the pipeline can keep the paper's Table II
benchmarking-vs-LP-time split faithful.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.isa.instruction import Instruction
from repro.mapping.microkernel import Microkernel
from repro.palmed.benchmarks import BenchmarkRunner, mixes_vector_extensions
from repro.palmed.config import PalmedConfig
from repro.palmed.core_mapping import CoreMappingResult
from repro.palmed.lp1_shape import KernelObservation
from repro.palmed.lp2_weights import (
    WeightModelCache,
    WeightProblem,
    solve_weights_exact,
    solve_weights_heuristic,
)
from repro.runtime import lane_state, run_chunks_in_process, run_lanes, split_chunks
from repro.solvers import SolverError, SolveStats, record_stats, use_stats


def _kernel_mixes_extensions(instruction: Instruction, kernel: Microkernel) -> bool:
    return any(mixes_vector_extensions(instruction, other) for other in kernel.instructions)


def _gather_observations(
    runner: BenchmarkRunner,
    instruction: Instruction,
    core: CoreMappingResult,
    config: PalmedConfig,
) -> List[KernelObservation]:
    """The measured kernels feeding one instruction's weight problem."""
    observations: List[KernelObservation] = []
    if config.include_singleton_in_lpaux:
        kernel = Microkernel.single(instruction)
        observations.append(KernelObservation(kernel=kernel, ipc=runner.ipc(kernel)))
    for resource in sorted(core.saturating_kernels):
        saturating = core.saturating_kernels[resource]
        if config.separate_extensions and _kernel_mixes_extensions(instruction, saturating):
            # The benchmark cannot be generated (mixed vector extensions);
            # the resource usage of this instruction is then inferred from
            # the remaining benchmarks only, as on real hardware.
            continue
        kernel = runner.saturating_benchmark(instruction, saturating)
        observations.append(KernelObservation(kernel=kernel, ipc=runner.ipc(kernel)))
    if not observations:
        kernel = Microkernel.single(instruction)
        observations.append(KernelObservation(kernel=kernel, ipc=runner.ipc(kernel)))
    return observations


def _solve_instruction(
    instruction: Instruction,
    observations: Sequence[KernelObservation],
    num_resources: int,
    frozen_rho: Dict[Instruction, Dict[int, float]],
    config: PalmedConfig,
    cache: Optional[WeightModelCache],
) -> Dict[int, float]:
    """Solve one frozen-core weight problem and threshold the edges."""
    problem = WeightProblem(
        observations=observations,
        num_resources=num_resources,
        free_edges={instruction: set(range(num_resources))},
        frozen_rho=frozen_rho,
        rho_upper_bound=None,
        soft_capacity=True,
    )
    if config.lpaux_mode == "exact":
        solution = solve_weights_exact(problem, config, cache)
    else:
        solution = solve_weights_heuristic(problem, config, cache)
    rho = solution.rho.get(instruction, {})
    return {
        resource: value
        for resource, value in rho.items()
        if value >= config.edge_threshold
    }


def map_single_instruction(
    runner: BenchmarkRunner,
    instruction: Instruction,
    core: CoreMappingResult,
    config: PalmedConfig,
) -> Dict[int, float]:
    """Infer the resource usage of one instruction against the frozen core."""
    observations = _gather_observations(runner, instruction, core, config)
    return _solve_instruction(
        instruction, observations, core.num_resources, core.basic_rho, config, None
    )


def _prefetch_lpaux_benchmarks(
    runner: BenchmarkRunner,
    instructions: List[Instruction],
    core: CoreMappingResult,
    config: PalmedConfig,
) -> None:
    """Batch-measure every LPAUX benchmark before the per-instruction LPs.

    The LPAUX phase needs ``|instructions| × |resources|`` saturating
    benchmarks plus the singletons; issuing them as one batch lets the
    measurement layer parallelize and consult the persistent cache, while
    the solving half then reads everything from the runner's memo.  The
    measured set (and every value) is exactly what the one-at-a-time path
    would have produced.
    """
    runner.prefetch(Microkernel.single(instruction) for instruction in instructions)
    kernels: List[Microkernel] = []
    for instruction in instructions:
        for resource in sorted(core.saturating_kernels):
            saturating = core.saturating_kernels[resource]
            if config.separate_extensions and _kernel_mixes_extensions(
                instruction, saturating
            ):
                continue
            kernels.append(runner.saturating_benchmark(instruction, saturating))
    runner.prefetch(kernels)


# ---------------------------------------------------------------------------
# Batched lane-pinned fan-out
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LpauxContext:
    """Shared worker context: everything but the per-instruction data."""

    num_resources: int
    frozen_rho: Dict[Instruction, Dict[int, float]]
    config: PalmedConfig
    on_error: str


def _solve_chunk(
    context: _LpauxContext,
    items: List[Tuple[Instruction, List[KernelObservation]]],
) -> List[Tuple[Optional[Dict[int, float]], SolveStats]]:
    """Solve a chunk of per-instruction weight problems.

    Runs identically inside lane processes and in-process emulation: the
    :class:`WeightModelCache` lives in :func:`repro.runtime.lane_state`,
    so one lane's compiled templates *and* warm-start memos persist across
    every chunk pinned to it — structure is built once per lane, later
    chunks only rebind data.  Per-instruction solver statistics are
    captured locally so the parent process can account work done in
    workers.  ``SolverError`` maps to ``None`` under ``on_error="skip"``;
    under ``"raise"`` it propagates (out of the lane, with its original
    type).
    """
    state = lane_state()
    cache: Optional[WeightModelCache] = state.get("lpaux_cache")
    if cache is None:
        cache = WeightModelCache(warm_start=context.config.lp_warm_start)
        state["lpaux_cache"] = cache
    results: List[Tuple[Optional[Dict[int, float]], SolveStats]] = []
    for instruction, observations in items:
        local = SolveStats()
        try:
            with use_stats(local):
                rho: Optional[Dict[int, float]] = _solve_instruction(
                    instruction,
                    observations,
                    context.num_resources,
                    context.frozen_rho,
                    context.config,
                    cache,
                )
        except SolverError:
            if context.on_error == "raise":
                raise
            rho = None
        results.append((rho, local))
    return results


@dataclass
class CompleteMappingOutcome:
    """Everything the complete-mapping phase produced.

    ``measurement_time`` covers the batched prefetch of the saturating
    benchmarks (benchmarking in the paper's Table II accounting);
    ``solve_time`` is the wall clock of the per-instruction LP fan-out.
    ``solver_stats`` aggregates the LP work across every worker —
    template reuse shows as ``model_builds`` well below ``solves``.
    """

    mapped: Dict[Instruction, Dict[int, float]]
    measurement_time: float = 0.0
    solve_time: float = 0.0
    solver_stats: SolveStats = field(default_factory=SolveStats)


def run_complete_mapping(
    runner: BenchmarkRunner,
    instructions: Iterable[Instruction],
    core: CoreMappingResult,
    config: PalmedConfig,
    on_error: str = "skip",
) -> CompleteMappingOutcome:
    """Run LPAUX for every instruction not already in the core mapping.

    Parameters
    ----------
    on_error:
        ``"skip"`` drops instructions whose weight problem fails (mirroring
        the paper's "instructions mapped" < "instructions supported" gap);
        ``"raise"`` propagates the solver error.
    """
    core_instructions = set(core.basic_rho)
    remaining = [
        instruction
        for instruction in sorted(set(instructions), key=lambda inst: inst.name)
        if instruction not in core_instructions
    ]

    measure_start = time.monotonic()
    _prefetch_lpaux_benchmarks(runner, remaining, core, config)
    items = [
        (instruction, _gather_observations(runner, instruction, core, config))
        for instruction in remaining
    ]
    measurement_time = time.monotonic() - measure_start

    lp_workers_requested = config.lp_parallelism
    lp_workers_effective = lp_workers_requested
    if hasattr(os, "sched_getaffinity"):
        host_cpus = len(os.sched_getaffinity(0))
    else:
        host_cpus = os.cpu_count() or 1
    if lp_workers_requested > 1 and host_cpus <= 1:
        # CPU-bound solves on one usable CPU gain nothing from lanes.  The
        # chunk plan below is lane-pinned from the *requested* count, so
        # counters are bitwise-identical either way; only the execution
        # strategy degrades (recorded in lp_workers_requested/effective).
        lp_workers_effective = 1

    # Planned from the *requested* lanes: ``lp_chunk_size=None`` gives one
    # chunk per lane, since uniform LPAUX problems need no finer balance.
    lanes = max(1, lp_workers_requested)
    chunks = split_chunks(items, lanes, config.lp_chunk_size)

    context = _LpauxContext(
        num_resources=core.num_resources,
        frozen_rho=core.basic_rho,
        config=config,
        on_error=on_error,
    )
    solve_start = time.monotonic()
    if lp_workers_effective > 1:
        chunk_results, lp_workers_effective = run_lanes(
            _solve_chunk, chunks, context, lanes, name="lp-lane"
        )
    else:
        chunk_results = run_chunks_in_process(_solve_chunk, chunks, context, lanes)
    solve_time = time.monotonic() - solve_start

    mapped: Dict[Instruction, Dict[int, float]] = {}
    stats = SolveStats()
    stats.lp_workers_requested = lp_workers_requested
    stats.lp_workers_effective = lp_workers_effective
    stats.lp_chunks = len(chunks)
    results = [result for chunk in chunk_results for result in chunk]
    for (instruction, _), (rho, local) in zip(items, results):
        stats.merge(local)
        if rho is not None:
            mapped[instruction] = rho
    # Re-inject the per-instruction records (possibly accumulated inside
    # worker processes) into the enclosing accounting, so process-global
    # solver statistics stay complete for every execution strategy.
    record_stats(stats)
    return CompleteMappingOutcome(
        mapped=mapped,
        measurement_time=measurement_time,
        solve_time=solve_time,
        solver_stats=stats,
    )

