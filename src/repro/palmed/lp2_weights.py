"""LP2 / LPAUX — the Bipartite Weight Problem (Algorithm 4 of the paper).

Given a set of measured microkernels and the admissible edges of the
mapping, the BWP finds edge weights ``ρ_{i,r} ∈ [0, 1]`` such that for every
kernel the predicted resource loads are consistent with the measured IPC:

    ρ_{K,r} = (Σ_i σ_{K,i} ρ_{i,r}) · IPC(K) / |K|      (proportion of r used)
    ρ_{K,r} ≤ 1                                          (capacity)
    S_K = max_r ρ_{K,r}                                  (saturation of K)

and the total prediction error ``Σ_K (1 - S_K)`` is minimized: an exactly
predicted kernel has one fully saturated resource.

``S_K = max_r ρ_{K,r}`` cannot be maximized directly in a pure LP, so two
solvers are provided:

* an **exact MILP** that introduces one binary selector per (kernel,
  resource) pair choosing which resource realises the max;
* an **alternating heuristic** that fixes the argmax resource of every
  kernel, solves the resulting LP, recomputes the argmax from the solution
  and repeats until the assignment stabilizes.  This is the default for
  large kernel sets (the role Gurobi's scale plays in the original tool).

LP2 solves it with every basic-instruction weight free.  The same MILP,
with one instruction free, the core frozen and soft capacities, is LPAUX's
per-instruction problem; LPAUX solves it in closed form
(:func:`repro.palmed.complete_mapping.solve_frozen_core_weights`) and the
tests use :func:`solve_weights_exact` as its reference.

Sparse incremental construction
-------------------------------
Models are built through :class:`repro.solvers.ModelBuilder` (COO triplets)
and compiled into a :class:`repro.solvers.ModelTemplate`: the sparsity
pattern of a BWP depends only on which free instructions appear in which
kernels and which edges are admissible, while every number in it — usage
coefficients, frozen-core constants, capacity bounds, ρ upper bounds — is
rebindable data.  The alternating heuristic therefore re-solves one
template across its rounds (see ``model_builds`` vs ``solves`` in
:func:`repro.solvers.solver_stats`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.isa.instruction import Instruction
from repro.palmed.config import PalmedConfig
from repro.palmed.lp1_shape import KernelObservation
from repro.solvers import ModelBuilder, ModelTemplate
from repro.solvers.stats import record_rebind


@dataclass
class WeightProblem:
    """Inputs of one Bipartite Weight Problem instance."""

    observations: Sequence[KernelObservation]
    num_resources: int
    free_edges: Mapping[Instruction, Set[int]]
    frozen_rho: Mapping[Instruction, Mapping[int, float]]
    rho_upper_bound: Optional[float] = 1.0
    #: When the frozen part of the mapping alone already over-uses a resource
    #: for some kernel (possible because the core is itself an approximation),
    #: a hard capacity constraint would make the problem infeasible.  With
    #: ``soft_capacity`` the capacity bound is relaxed to the frozen usage for
    #: those kernels, which simply forbids the free instruction from adding
    #: load there.  Used by LPAUX.
    soft_capacity: bool = False

    def __post_init__(self) -> None:
        if self.num_resources <= 0:
            raise ValueError("num_resources must be positive")
        overlap = set(self.free_edges) & set(self.frozen_rho)
        if overlap:
            names = ", ".join(sorted(inst.name for inst in overlap))
            raise ValueError(f"instructions both free and frozen: {names}")


@dataclass
class WeightSolution:
    """Solution of a Bipartite Weight Problem."""

    rho: Dict[Instruction, Dict[int, float]]
    saturation: Dict[KernelObservation, float]
    total_error: float


def kernel_resource_usage(
    observation: KernelObservation,
    resource: int,
    free_rho: Mapping[Instruction, Mapping[int, float]],
    frozen_rho: Mapping[Instruction, Mapping[int, float]],
) -> float:
    """Evaluate ``ρ_{K,r}`` for concrete edge weights."""
    total = 0.0
    for instruction, multiplicity in observation.kernel.items():
        weights = free_rho.get(instruction) or frozen_rho.get(instruction) or {}
        total += multiplicity * weights.get(resource, 0.0)
    return total * observation.ipc / observation.kernel.size


def solve_weights(problem: WeightProblem, config: PalmedConfig) -> WeightSolution:
    """Solve the BWP with the solver selected by the configuration."""
    mode = config.lp2_mode
    if mode == "auto":
        mode = (
            "exact"
            if len(problem.observations) <= config.lp2_exact_max_kernels
            else "heuristic"
        )
    if mode == "exact":
        return solve_weights_exact(problem, config)
    return solve_weights_heuristic(problem, config)


# ---------------------------------------------------------------------------
# Structure templates
# ---------------------------------------------------------------------------

#: Tie-break weight pulling ρ towards sparse mappings (secondary objective).
_RHO_PENALTY = 1e-4


def _free_order(problem: WeightProblem) -> List[Instruction]:
    return sorted(problem.free_edges, key=lambda inst: inst.name)


def _structure_signature(problem: WeightProblem, mode: str) -> tuple:
    """Everything that shapes the model (not its numbers).

    Two problems with equal signatures compile to the same sparsity
    pattern, variable kinds and row layout; all remaining differences
    (usage coefficients, frozen constants, capacity and ρ bounds) are
    rebindable data.
    """
    free = _free_order(problem)
    edges = tuple(tuple(sorted(problem.free_edges[inst])) for inst in free)
    present = tuple(
        tuple(fi for fi, inst in enumerate(free) if inst in observation.kernel)
        for observation in problem.observations
    )
    return (mode, problem.num_resources, edges, present)


@dataclass
class _BoundData:
    """Per-observation numbers computed while binding a problem."""

    #: ``fi -> multiplicity * ipc / |K|`` for free instructions present.
    coefficients: List[Dict[int, float]]
    #: Frozen-core contribution to ``ρ_{K,r}`` per (observation, resource).
    constants: List[List[float]]


class _BwpTemplate:
    """Compiled BWP structure for one :func:`_structure_signature` family.

    Holds the :class:`ModelTemplate` plus the handle maps needed to rebind
    a concrete :class:`WeightProblem` (and, in heuristic mode, a concrete
    argmax assignment) into it.
    """

    def __init__(
        self,
        mode: str,
        num_resources: int,
        edges: Tuple[Tuple[int, ...], ...],
        present: Tuple[Tuple[int, ...], ...],
    ) -> None:
        self.mode = mode
        self.num_resources = num_resources
        self.edges = edges
        self.present = present
        num_obs = len(present)

        builder = ModelBuilder(f"lp2-bwp-{mode}")
        self.rho_cols: Dict[Tuple[int, int], int] = {}
        for fi, resources in enumerate(edges):
            for resource in resources:
                self.rho_cols[(fi, resource)] = builder.add_variable(0.0, math.inf)
        self.s_cols: List[int] = []
        self.sel_cols: Dict[Tuple[int, int], int] = {}
        for k in range(num_obs):
            self.s_cols.append(builder.add_variable(0.0, 1.0))
            if mode == "exact":
                for resource in range(num_resources):
                    self.sel_cols[(k, resource)] = builder.add_binary()

        # Capacity rows: usage(k, r) <= bound, one per (observation, resource).
        self.cap_rows: Dict[Tuple[int, int], int] = {}
        self.cap_entries: Dict[Tuple[int, int, int], int] = {}
        for k in range(num_obs):
            for resource in range(num_resources):
                row = builder.add_row(-math.inf, 1.0)
                self.cap_rows[(k, resource)] = row
                for fi in present[k]:
                    if resource in edges[fi]:
                        self.cap_entries[(k, resource, fi)] = builder.add_entry(
                            row, self.rho_cols[(fi, resource)], 0.0
                        )

        self.sdef_rows: Dict[Tuple[int, int], int] = {}
        self.sdef_entries: Dict[Tuple[int, int, int], int] = {}
        self.s_rows: List[int] = []
        self.s_entries: Dict[Tuple[int, int, int], int] = {}
        if mode == "exact":
            # S_K <= usage(k, r) + (1 - sel(k, r)): when resource r is
            # selected, the saturation may not exceed its usage.
            for k in range(num_obs):
                for resource in range(num_resources):
                    row = builder.add_row(-math.inf, 1.0)
                    self.sdef_rows[(k, resource)] = row
                    builder.add_entry(row, self.s_cols[k], 1.0)
                    builder.add_entry(row, self.sel_cols[(k, resource)], 1.0)
                    for fi in present[k]:
                        if resource in edges[fi]:
                            self.sdef_entries[(k, resource, fi)] = builder.add_entry(
                                row, self.rho_cols[(fi, resource)], 0.0
                            )
                builder.add_row_entries(
                    [self.sel_cols[(k, r)] for r in range(num_resources)],
                    [1.0] * num_resources,
                    lo=1.0,
                )
        else:
            # S_K <= usage(k, assignment[k]); the pattern covers every
            # resource an assignment could pick, the per-round bind zeroes
            # the entries of the non-assigned resources.
            for k in range(num_obs):
                row = builder.add_row(-math.inf, 0.0)
                self.s_rows.append(row)
                builder.add_entry(row, self.s_cols[k], 1.0)
                for fi in present[k]:
                    for resource in edges[fi]:
                        self.s_entries[(k, fi, resource)] = builder.add_entry(
                            row, self.rho_cols[(fi, resource)], 0.0
                        )

        objective = {col: -_RHO_PENALTY for col in self.rho_cols.values()}
        for s_col in self.s_cols:
            objective[s_col] = 1.0
        builder.set_objective(objective, maximize=True)
        self.template: ModelTemplate = builder.build()

    # -- binding -------------------------------------------------------------
    def bind(self, problem: WeightProblem) -> _BoundData:
        """Write a problem's data into the template (full rebind)."""
        started = time.monotonic()
        template = self.template
        upper = (
            math.inf if problem.rho_upper_bound is None else problem.rho_upper_bound
        )
        for col in self.rho_cols.values():
            template.set_variable_bounds(col, 0.0, upper)

        free = _free_order(problem)
        free_index = {inst: fi for fi, inst in enumerate(free)}
        num_resources = self.num_resources
        coefficients: List[Dict[int, float]] = []
        constants: List[List[float]] = []
        for k, observation in enumerate(problem.observations):
            scale = observation.ipc / observation.kernel.size
            coeff: Dict[int, float] = {}
            const = [0.0] * num_resources
            for instruction, multiplicity in observation.kernel.items():
                coefficient = multiplicity * scale
                fi = free_index.get(instruction)
                if fi is not None:
                    coeff[fi] = coefficient
                else:
                    frozen = problem.frozen_rho.get(instruction, {})
                    for resource, weight in frozen.items():
                        if resource < num_resources:
                            const[resource] += coefficient * weight
            coefficients.append(coeff)
            constants.append(const)

            for resource in range(num_resources):
                bound = 1.0
                if problem.soft_capacity and const[resource] > 1.0:
                    bound = const[resource]
                template.set_row_bounds(
                    self.cap_rows[(k, resource)], -math.inf, bound - const[resource]
                )
                for fi in self.present[k]:
                    if resource in self.edges[fi]:
                        template.set_entry(
                            self.cap_entries[(k, resource, fi)], coeff[fi]
                        )
                if self.mode == "exact":
                    template.set_row_bounds(
                        self.sdef_rows[(k, resource)], -math.inf, 1.0 + const[resource]
                    )
                    for fi in self.present[k]:
                        if resource in self.edges[fi]:
                            template.set_entry(
                                self.sdef_entries[(k, resource, fi)], -coeff[fi]
                            )
        record_rebind(time.monotonic() - started)
        return _BoundData(coefficients=coefficients, constants=constants)

    def bind_assignment(
        self, data: _BoundData, assignment: Sequence[int]
    ) -> None:
        """Heuristic mode: point every S row at its assigned resource."""
        started = time.monotonic()
        template = self.template
        for k, assigned in enumerate(assignment):
            template.set_row_bounds(
                self.s_rows[k], -math.inf, data.constants[k][assigned]
            )
            for fi in self.present[k]:
                coefficient = data.coefficients[k][fi]
                for resource in self.edges[fi]:
                    template.set_entry(
                        self.s_entries[(k, fi, resource)],
                        -coefficient if resource == assigned else 0.0,
                    )
        record_rebind(time.monotonic() - started)

    # -- extraction ----------------------------------------------------------
    def extract_rho(
        self, problem: WeightProblem, x, clamp: bool = True
    ) -> Dict[Instruction, Dict[int, float]]:
        rho: Dict[Instruction, Dict[int, float]] = {}
        for fi, instruction in enumerate(_free_order(problem)):
            weights: Dict[int, float] = {}
            for resource in self.edges[fi]:
                value = float(x[self.rho_cols[(fi, resource)]])
                if clamp and value < 0:
                    value = 0.0
                weights[resource] = value
            rho[instruction] = weights
        return rho


def _finalize(
    problem: WeightProblem,
    rho: Dict[Instruction, Dict[int, float]],
    saturation_values: Mapping[int, float],
) -> WeightSolution:
    saturation = {
        observation: saturation_values[index]
        for index, observation in enumerate(problem.observations)
    }
    total_error = sum(1.0 - value for value in saturation.values())
    return WeightSolution(rho=rho, saturation=saturation, total_error=total_error)


# ---------------------------------------------------------------------------
# Exact MILP
# ---------------------------------------------------------------------------

def solve_weights_exact(problem: WeightProblem, config: PalmedConfig) -> WeightSolution:
    """Exact BWP: per-kernel binaries select the saturated resource."""
    bwp = _BwpTemplate(*_structure_signature(problem, "exact"))
    bwp.bind(problem)
    solution = bwp.template.solve(time_limit=config.milp_time_limit)

    saturation_values = {
        k: float(solution.x[s_col]) for k, s_col in enumerate(bwp.s_cols)
    }
    rho = bwp.extract_rho(problem, solution.x)
    return _finalize(problem, rho, saturation_values)


# ---------------------------------------------------------------------------
# Alternating heuristic
# ---------------------------------------------------------------------------

def solve_weights_heuristic(problem: WeightProblem, config: PalmedConfig) -> WeightSolution:
    """Alternating argmax / LP refinement of the BWP.

    Starting from the resource with the largest *potential* usage for every
    kernel, the heuristic solves the LP with the saturation constrained by
    that resource only, then recomputes every kernel's argmax resource from
    the solution and repeats.  The objective is non-decreasing across rounds
    (the previous solution stays feasible when the assignment is unchanged),
    and the loop stops as soon as the assignment is stable.  Every round
    re-solves the *same* compiled template with the S rows re-pointed at the
    new assignment — structure is built once per problem family.
    """
    num_resources = problem.num_resources

    def potential_usage(observation: KernelObservation, resource: int) -> float:
        total = 0.0
        for instruction, multiplicity in observation.kernel.items():
            if instruction in problem.free_edges:
                if resource in problem.free_edges[instruction]:
                    total += multiplicity
            else:
                total += multiplicity * problem.frozen_rho.get(instruction, {}).get(resource, 0.0)
        return total * observation.ipc / observation.kernel.size

    assignment: List[int] = []
    for observation in problem.observations:
        best = max(range(num_resources), key=lambda r: potential_usage(observation, r))
        assignment.append(best)

    bwp = _BwpTemplate(*_structure_signature(problem, "heuristic"))
    data = bwp.bind(problem)

    best_result: Optional[WeightSolution] = None
    for _ in range(max(1, config.lp2_heuristic_rounds)):
        bwp.bind_assignment(data, assignment)
        solution = bwp.template.solve(time_limit=config.milp_time_limit)

        rho_values = bwp.extract_rho(problem, solution.x, clamp=False)
        saturation_values: Dict[int, float] = {}
        new_assignment = []
        for index, observation in enumerate(problem.observations):
            loads = [
                kernel_resource_usage(observation, r, rho_values, problem.frozen_rho)
                for r in range(num_resources)
            ]
            new_assignment.append(int(max(range(num_resources), key=lambda r: loads[r])))
            saturation_values[index] = min(1.0, max(loads))
        # The argmax above uses the raw LP values; the reported weights clamp
        # solver noise below zero (same split as the exact path).
        clamped = {
            instruction: {
                resource: (0.0 if value < 0 else value)
                for resource, value in weights.items()
            }
            for instruction, weights in rho_values.items()
        }
        result = _finalize(problem, clamped, saturation_values)
        if best_result is None or result.total_error < best_result.total_error - 1e-9:
            best_result = result
        if new_assignment == assignment:
            break
        assignment = new_assignment

    assert best_result is not None
    return best_result
