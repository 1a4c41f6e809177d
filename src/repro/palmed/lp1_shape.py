"""LP1 — the shape of the core mapping (Algorithm 3 of the paper).

The shape problem decides *how many* abstract resources are needed and
*which* basic instructions may use each of them, before any edge weight is
computed.  It is an integer linear program over binary usage indicators
``ρ_{i,r} ∈ {0, 1}``:

* every very-basic instruction owns at least one resource that no other
  very-basic instruction uses (it was selected as pairwise disjoint from
  them);
* every greedy instruction shares at least one resource with *all* the
  instructions it is not disjoint from (the ``><`` relation);
* for every measured microkernel, each *saturating* instruction (one whose
  own execution time equals the kernel's) owns a resource unused by the rest
  of the kernel; kernels without a saturating instruction must have a
  resource shared by all their instructions;
* the number of resources used is minimized (with a secondary objective
  minimizing the number of edges).

"Exists a resource such that …" constraints are encoded with auxiliary
binary selector variables and big-M implications (the big-M is always the
number of terms involved, so the relaxation stays tight).

The ILP is assembled through the sparse :class:`repro.solvers.ModelBuilder`
(COO triplets, one compilation per solve); the shape problem is solved a
handful of times per run, but it is by far the *largest* model in the
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.isa.instruction import Instruction
from repro.mapping.microkernel import Microkernel
from repro.palmed.basic_selection import BasicSelectionResult
from repro.palmed.config import PalmedConfig
from repro.solvers import ModelBuilder


@dataclass(frozen=True)
class KernelObservation:
    """A measured microkernel fed to LP1/LP2."""

    kernel: Microkernel
    ipc: float

    @property
    def cycles(self) -> float:
        """Measured cycles per loop iteration (``t(K) = |K| / IPC``)."""
        return self.kernel.size / self.ipc


@dataclass
class ShapeMapping:
    """Result of the shape problem: admissible edges per basic instruction."""

    num_resources: int
    edges: Dict[Instruction, Set[int]]

    def users_of(self, resource: int) -> List[Instruction]:
        """Basic instructions allowed to use a given resource."""
        return sorted(
            (inst for inst, resources in self.edges.items() if resource in resources),
            key=lambda inst: inst.name,
        )


def saturating_instructions(
    observation: KernelObservation,
    single_ipc: Dict[Instruction, float],
    epsilon: float,
) -> List[Instruction]:
    """Instructions whose own execution time equals the kernel's.

    An instruction ``i`` saturates kernel ``K`` when executing only its
    ``σ_{K,i}`` instances already takes (within tolerance) as long as the
    whole kernel: its private resource is the kernel's bottleneck.
    """
    result = []
    kernel_cycles = observation.cycles
    for instruction, multiplicity in observation.kernel.items():
        own_cycles = multiplicity / single_ipc[instruction]
        if own_cycles >= kernel_cycles * (1.0 - epsilon):
            result.append(instruction)
    return result


def solve_shape(
    observations: Sequence[KernelObservation],
    selection: BasicSelectionResult,
    single_ipc: Dict[Instruction, float],
    config: PalmedConfig,
) -> ShapeMapping:
    """Solve the LP1 ILP and return the inferred shape.

    Raises
    ------
    repro.solvers.InfeasibleError
        If no mapping with at most ``config.max_resources`` resources can
        explain the observations (increase ``max_resources``).
    """
    basic = list(selection.basic)
    basic_set = set(basic)
    very_basic = [inst for inst in selection.very_basic if inst in basic_set]
    greedy = [inst for inst in selection.greedy if inst in basic_set]
    num_resources = config.max_resources
    resources = range(num_resources)

    builder = ModelBuilder("lp1-shape")
    rho = {
        (inst, r): builder.add_binary()
        for inst in basic
        for r in resources
    }
    used = {r: builder.add_binary() for r in resources}

    def require_any(selectors: Sequence[int]) -> None:
        """Require at least one of the binary selector columns to be 1."""
        builder.add_row_entries(selectors, [1.0] * len(selectors), lo=1.0)

    # A resource is "used" as soon as any instruction maps to it; symmetry is
    # broken by forcing used resources to occupy the lowest indices and by
    # ordering resource columns lexicographically (interpreting each column
    # as a binary number over the basic instructions), which removes the
    # factorial blow-up of permuting identical resources.
    for r in resources:
        for inst in basic:
            builder.add_row_entries([rho[(inst, r)], used[r]], [1.0, -1.0], hi=0.0)
    for r in range(num_resources - 1):
        builder.add_row_entries([used[r + 1], used[r]], [1.0, -1.0], hi=0.0)
        row = builder.add_row(hi=0.0)
        for i, inst in enumerate(basic):
            builder.add_entry(row, rho[(inst, r + 1)], float(2 ** i))
            builder.add_entry(row, rho[(inst, r)], -float(2 ** i))

    # Every basic instruction uses at least one resource.
    for inst in basic:
        require_any([rho[(inst, r)] for r in resources])

    # Very basic instructions: at least one resource unused by the other
    # very basic instructions (Algorithm 3, line 4).
    for inst in very_basic:
        others = [other for other in very_basic if other != inst]
        selectors = []
        for r in resources:
            selector = builder.add_binary()
            selectors.append(selector)
            builder.add_row_entries([selector, rho[(inst, r)]], [1.0, -1.0], hi=0.0)
            for other in others:
                builder.add_row_entries([selector, rho[(other, r)]], [1.0, 1.0], hi=1.0)
        require_any(selectors)

    # Greedy instructions: at least one resource shared with every
    # non-disjoint basic instruction (Algorithm 3, line 5).
    for inst in greedy:
        partners = sorted(
            selection.non_disjoint_partners(inst) & basic_set - {inst},
            key=lambda other: other.name,
        )
        if not partners:
            continue
        selectors = []
        for r in resources:
            selector = builder.add_binary()
            selectors.append(selector)
            builder.add_row_entries([selector, rho[(inst, r)]], [1.0, -1.0], hi=0.0)
            for other in partners:
                builder.add_row_entries(
                    [selector, rho[(other, r)]], [1.0, -1.0], hi=0.0
                )
        require_any(selectors)

    # Per-kernel constraints (Algorithm 3, lines 6-10).
    for observation in observations:
        kernel_instructions = [
            inst for inst in observation.kernel.instructions if inst in basic_set
        ]
        if len(kernel_instructions) < 2:
            # Single-instruction kernels only assert "uses some resource",
            # which is already enforced above.
            continue
        saturating = [
            inst
            for inst in saturating_instructions(observation, single_ipc, config.epsilon)
            if inst in basic_set
        ]
        if saturating:
            for inst in saturating:
                others = [other for other in kernel_instructions if other != inst]
                selectors = []
                for r in resources:
                    selector = builder.add_binary()
                    selectors.append(selector)
                    builder.add_row_entries(
                        [selector, rho[(inst, r)]], [1.0, -1.0], hi=0.0
                    )
                    for other in others:
                        builder.add_row_entries(
                            [selector, rho[(other, r)]], [1.0, 1.0], hi=1.0
                        )
                require_any(selectors)
        else:
            selectors = []
            for r in resources:
                selector = builder.add_binary()
                selectors.append(selector)
                for inst in kernel_instructions:
                    builder.add_row_entries(
                        [selector, rho[(inst, r)]], [1.0, -1.0], hi=0.0
                    )
            require_any(selectors)

    # Primary objective: number of resources; secondary: number of edges.
    big = float(len(basic) * num_resources + 1)
    objective = {col: 1.0 for col in rho.values()}
    for col in used.values():
        objective[col] = big
    builder.set_objective(objective, maximize=False)

    solution = builder.build().solve(
        time_limit=config.lp1_time_limit, mip_rel_gap=config.lp1_mip_gap
    )

    active_resources = [r for r in resources if solution.x[used[r]] > 0.5]
    renumber = {r: new_index for new_index, r in enumerate(active_resources)}
    edges: Dict[Instruction, Set[int]] = {
        inst: {
            renumber[r]
            for r in active_resources
            if solution.x[rho[(inst, r)]] > 0.5
        }
        for inst in basic
    }
    return ShapeMapping(num_resources=len(active_resources), edges=edges)
