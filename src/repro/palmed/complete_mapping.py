"""Complete mapping — LPAUX (Algorithm 5 of the paper).

Once the core mapping is known, every remaining instruction is mapped
independently: the instruction is mixed with the saturating kernel of each
resource (scaled by ``L`` so the resource stays the bottleneck), the
resulting benchmarks are measured, and a small weight problem with the core
edges *frozen* recovers the instruction's usage of every resource.  Because
each instruction is handled by its own constant-size problem, this phase
scales linearly with the ISA — the key to mapping thousands of instructions.

Closed-form solve
-----------------
The per-instruction problem is the Bipartite Weight Problem of
:mod:`repro.palmed.lp2_weights` with one free instruction, the core frozen
and soft capacities.  It needs no solver: every capacity row bounds a
single ``ρ_r``, so the feasible set is a box; the objective is convex on
that box, so its maximum sits at a vertex (each ``ρ_r`` at 0 or at its
upper bound).  :func:`solve_frozen_core_weights` scores every vertex with
numpy and returns the best one.  Optimal vertices can tie exactly — when
skipped mixed-extension kernels leave resources no observation tells
apart — so the choice is fixed by rule: fewest nonzero weights, then the
lowest resource indices.  The MILP of
:func:`~repro.palmed.lp2_weights.solve_weights_exact` on the same problem
is the reference the tests compare against.

Execution model
---------------
The phase splits into a *measurement* half and a *solving* half:

* every saturating benchmark and singleton is prefetched in one batch
  through the measurement layer (in-process, plus the persistent cache
  named by ``PalmedConfig.cache_path``);
* the per-instruction weight problems are then solved one after the
  other, in instruction-name order, in the calling process.  Each takes
  well under a millisecond, less than a worker process costs to start.

The closed form depends on the problem's data only, and the measurement
layer returns the same values batched, scalar or cached (see
``tests/test_measure_parallel.py``), so the inferred usages are
bitwise-deterministic.  :class:`CompleteMappingOutcome` reports the
measurement/solve wall clocks separately so the pipeline can keep the
paper's Table II benchmarking-vs-LP-time split faithful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.isa.instruction import Instruction
from repro.mapping.microkernel import Microkernel
from repro.palmed.benchmarks import BenchmarkRunner, mixes_vector_extensions
from repro.palmed.config import PalmedConfig
from repro.palmed.core_mapping import CoreMappingResult
from repro.palmed.lp1_shape import KernelObservation
from repro.palmed.lp2_weights import _RHO_PENALTY

#: Vertices scored per numpy block: bounds memory for any ``max_resources``.
_VERTEX_BLOCK = 4096
#: Vertices whose objective is this close to the best one tie.
_TIE_TOLERANCE = 1e-9


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


def solve_frozen_core_weights(
    instruction: Instruction,
    observations: Sequence[KernelObservation],
    num_resources: int,
    frozen_rho: Mapping[Instruction, Mapping[int, float]],
) -> Dict[int, float]:
    """Exact optimum of one instruction's frozen-core weight problem.

    The problem is :func:`~repro.palmed.lp2_weights.solve_weights_exact`'s
    MILP with ``instruction`` the only free instruction, every other one
    frozen at ``frozen_rho``, soft capacities and no upper bound on ρ;
    every observation must contain ``instruction``, as every LPAUX kernel
    does.  For each observation ``K`` let ``c_K = σ_K(i) · IPC(K) / |K|``
    (the free instruction's coefficient) and ``d_{K,r}`` the frozen load
    of resource ``r``; the MILP maximizes
    ``Σ_K S_K − _RHO_PENALTY · Σ_r ρ_r``.

    Why a vertex is optimal:

    * each capacity row ``c_K ρ_r ≤ max(1, d_{K,r}) − d_{K,r}`` involves a
      single ``ρ_r``, so the feasible set is the box
      ``0 ≤ ρ_r ≤ U_r = min_K (max(1, d_{K,r}) − d_{K,r}) / c_K``;
    * at the optimum ``S_K = min(1, max_r (c_K ρ_r + d_{K,r}))``.  On the
      box this is the constant 1 when some ``d_{K,r} > 1``, and otherwise
      a maximum of affine functions that never exceed 1 — convex either
      way, and so is the whole objective;
    * a convex function reaches its maximum over a box at a vertex, where
      each ``ρ_r`` is 0 or ``U_r``; resources with ``U_r = 0`` are fixed
      at 0.

    All ``2^|F|`` vertices over the free resources ``F = {r : U_r > 0}``
    are scored in blocks of at most ``_VERTEX_BLOCK``.  Among vertices
    within ``_TIE_TOLERANCE`` of the best objective, the one with the
    fewest nonzero weights wins, then the smallest bitmask (bit ``j`` is
    the ``j``-th resource of ``F``).  Returns ``ρ_r`` for every resource.
    """
    num_obs = len(observations)
    coefficient = np.zeros(num_obs)
    frozen_load = np.zeros((num_obs, num_resources))
    # Same accumulation order as ``_BwpTemplate.bind``.
    for k, observation in enumerate(observations):
        scale = observation.ipc / observation.kernel.size
        const = [0.0] * num_resources
        for other, multiplicity in observation.kernel.items():
            weight_scale = multiplicity * scale
            if other == instruction:
                coefficient[k] = weight_scale
                continue
            for resource, weight in frozen_rho.get(other, {}).items():
                if resource < num_resources:
                    const[resource] += weight_scale * weight
        frozen_load[k] = const

    if not (coefficient > 0).all():
        raise ValueError(f"an observation does not contain {instruction.name}")
    capacity = np.maximum(1.0, frozen_load) - frozen_load
    upper = (capacity / coefficient[:, None]).min(axis=0)
    free = np.flatnonzero(upper > 0)
    rho = {resource: 0.0 for resource in range(num_resources)}
    if free.size == 0:
        return rho

    free_upper = upper[free]
    peak = coefficient[:, None] * free_upper + frozen_load[:, free]
    floor = frozen_load.max(axis=1)
    shifts = np.arange(free.size)
    starts = range(0, 1 << free.size, _VERTEX_BLOCK)

    def score(start: int) -> Tuple[np.ndarray, np.ndarray]:
        masks = np.arange(start, min(start + _VERTEX_BLOCK, 1 << free.size))
        bits = ((masks[:, None] >> shifts) & 1).astype(bool)
        loads = np.where(bits[:, None, :], peak, -np.inf).max(axis=2)
        saturation = np.minimum(1.0, np.maximum(floor, loads))
        return saturation.sum(axis=1) - _RHO_PENALTY * (bits @ free_upper), bits

    best = max(float(score(start)[0].max()) for start in starts)
    chosen: Tuple[int, int] = (free.size + 1, 0)
    for start in starts:
        objective, bits = score(start)
        tied = np.flatnonzero(objective >= best - _TIE_TOLERANCE)
        if tied.size == 0:
            continue
        counts = bits[tied].sum(axis=1)
        # ``tied`` ascends, so the first fewest-weights index is the smallest mask.
        index = int(tied[np.argmin(counts)])
        chosen = min(chosen, (int(counts.min()), start + index))
    for j, resource in enumerate(free):
        if chosen[1] >> j & 1:
            rho[int(resource)] = float(free_upper[j])
    return rho


def _solve_instruction(
    instruction: Instruction,
    observations: Sequence[KernelObservation],
    num_resources: int,
    frozen_rho: Dict[Instruction, Dict[int, float]],
    config: PalmedConfig,
) -> Dict[int, float]:
    """Solve one frozen-core weight problem and threshold the edges."""
    rho = solve_frozen_core_weights(
        instruction, observations, num_resources, frozen_rho
    )
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
        instruction, observations, core.num_resources, core.basic_rho, config
    )


def _prefetch_lpaux_benchmarks(
    runner: BenchmarkRunner,
    instructions: List[Instruction],
    core: CoreMappingResult,
    config: PalmedConfig,
) -> None:
    """Batch-measure every LPAUX benchmark before the per-instruction solves.

    The LPAUX phase needs ``|instructions| × |resources|`` saturating
    benchmarks plus the singletons; issuing them as one batch lets the
    measurement layer consult the persistent cache and measure the rest at
    once, while the solving half then reads everything from the runner's
    memo.  The
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


@dataclass
class CompleteMappingOutcome:
    """Everything the complete-mapping phase produced.

    ``measurement_time`` covers the batched prefetch of the saturating
    benchmarks (benchmarking in the paper's Table II accounting);
    ``solve_time`` is the wall clock of the per-instruction solves, which
    call no solver backend.
    """

    mapped: Dict[Instruction, Dict[int, float]]
    measurement_time: float = 0.0
    solve_time: float = 0.0


def run_complete_mapping(
    runner: BenchmarkRunner,
    instructions: Iterable[Instruction],
    core: CoreMappingResult,
    config: PalmedConfig,
) -> CompleteMappingOutcome:
    """Run LPAUX for every instruction not already in the core mapping."""
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

    solve_start = time.monotonic()
    mapped = {
        instruction: _solve_instruction(
            instruction, observations, core.num_resources, core.basic_rho, config
        )
        for instruction, observations in items
    }
    return CompleteMappingOutcome(
        mapped=mapped,
        measurement_time=measurement_time,
        solve_time=time.monotonic() - solve_start,
    )
