"""The closed-form LPAUX solve against the exact MILP it replaces.

:func:`solve_frozen_core_weights` answers one instruction's frozen-core
weight problem by enumerating the vertices of its feasible box.  The
reference is :func:`solve_weights_exact` on the same
:class:`WeightProblem`: the closed form must be feasible, at least as
good as the MILP's incumbent, and no better than HiGHS's default MIP gap
allows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PortModelBackend, build_skylake_like_machine, build_small_isa
from repro.isa.instruction import Extension, Instruction, InstructionKind
from repro.mapping.microkernel import Microkernel
from repro.palmed import PalmedConfig
from repro.palmed import complete_mapping
from repro.palmed.basic_selection import select_basic_instructions
from repro.palmed.benchmarks import BenchmarkRunner
from repro.palmed.complete_mapping import (
    _gather_observations,
    solve_frozen_core_weights,
)
from repro.palmed.core_mapping import compute_core_mapping
from repro.palmed.lp1_shape import KernelObservation
from repro.palmed.lp2_weights import _RHO_PENALTY, WeightProblem, solve_weights_exact
from repro.palmed.quadratic import QuadraticBenchmarks

FREE = Instruction("FREE", InstructionKind.INT_ALU, Extension.BASE)
FROZEN = [
    Instruction(f"CORE{index}", InstructionKind.FP_ADD, Extension.BASE)
    for index in range(3)
]
#: HiGHS's default relative MIP gap: the MILP reference may stop this far
#: below the optimum.
MIP_GAP = 1e-4


def _loads(observation, instruction, rho, frozen_rho, num_resources):
    """``(c_K ρ_r + d_{K,r})`` for every resource, and ``(c_K, d_K)``."""
    scale = observation.ipc / observation.kernel.size
    coefficient = 0.0
    frozen = [0.0] * num_resources
    for other, multiplicity in observation.kernel.items():
        if other == instruction:
            coefficient = multiplicity * scale
        else:
            for resource, weight in frozen_rho.get(other, {}).items():
                frozen[resource] += multiplicity * scale * weight
    loads = [coefficient * rho.get(r, 0.0) + frozen[r] for r in range(num_resources)]
    return loads, coefficient, frozen


def _objective(observations, instruction, rho, frozen_rho, num_resources):
    """The MILP's objective, evaluated from ρ over the observation list."""
    total = 0.0
    for observation in observations:
        loads, _, _ = _loads(observation, instruction, rho, frozen_rho, num_resources)
        total += min(1.0, max(loads))
    return total - _RHO_PENALTY * sum(rho.values())


def _reference(observations, instruction, frozen_rho, num_resources):
    problem = WeightProblem(
        observations=observations,
        num_resources=num_resources,
        free_edges={instruction: set(range(num_resources))},
        frozen_rho=frozen_rho,
        rho_upper_bound=None,
        soft_capacity=True,
    )
    return solve_weights_exact(problem, PalmedConfig()).rho[instruction]


@st.composite
def lpaux_problems(draw):
    """One free instruction, a random frozen core, kernels containing it."""
    num_resources = draw(st.integers(min_value=1, max_value=4))
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=1.5))
    frozen_rho = {
        instruction: {
            r: w
            for r, w in enumerate(
                draw(st.lists(weight, min_size=num_resources, max_size=num_resources))
            )
            if w > 0
        }
        for instruction in FROZEN[: draw(st.integers(min_value=1, max_value=3))]
    }
    observations = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        counts = {FREE: draw(st.floats(min_value=0.25, max_value=4.0))}
        for instruction in frozen_rho:
            if draw(st.booleans()):
                counts[instruction] = draw(st.floats(min_value=0.5, max_value=8.0))
        ipc = draw(st.floats(min_value=0.1, max_value=4.0, exclude_min=True))
        observations.append(KernelObservation(kernel=Microkernel(counts), ipc=ipc))
    return observations, frozen_rho, num_resources


class TestClosedFormAgainstMilp:
    @settings(max_examples=60, deadline=None)
    @given(lpaux_problems())
    def test_feasible_and_optimal(self, problem):
        observations, frozen_rho, num_resources = problem
        rho = solve_frozen_core_weights(FREE, observations, num_resources, frozen_rho)
        assert sorted(rho) == list(range(num_resources))
        for observation in observations:
            _, coefficient, frozen = _loads(
                observation, FREE, rho, frozen_rho, num_resources
            )
            for resource, value in rho.items():
                assert value >= 0.0
                capacity = max(1.0, frozen[resource]) - frozen[resource]
                assert coefficient * value <= capacity + 1e-12
        closed = _objective(observations, FREE, rho, frozen_rho, num_resources)
        reference = _objective(
            observations,
            FREE,
            _reference(observations, FREE, frozen_rho, num_resources),
            frozen_rho,
            num_resources,
        )
        assert closed >= reference - 1e-6
        assert closed <= reference + MIP_GAP * abs(reference) + 1e-6

    @pytest.mark.parametrize("ipc", [0.4, 1.0, 3.0])
    def test_indistinguishable_resources_take_the_lowest(self, ipc):
        # A singleton alone cannot tell three resources apart: every single
        # resource saturates it equally, and the rule picks resource 0.
        observations = [KernelObservation(kernel=Microkernel.single(FREE), ipc=ipc)]
        rho = solve_frozen_core_weights(FREE, observations, 3, {})
        assert rho == {0: 1.0 / ipc, 1: 0.0, 2: 0.0}

    def test_tied_vertices_prefer_fewer_edges(self):
        # Resource 2 alone saturates both kernels; resources 0 and 1
        # together do too, at the same total weight (0.5 + 0.5 = 1.0), so
        # the objectives tie exactly.  Fewer edges win over the smaller
        # bitmask ({0, 1} = 0b011 < {2} = 0b100).
        observations = [
            KernelObservation(kernel=Microkernel({FREE: 1.0, core: 1.0}), ipc=2.0)
            for core in FROZEN[:2]
        ]
        frozen_rho = {FROZEN[0]: {1: 0.5}, FROZEN[1]: {0: 0.5}}
        rho = solve_frozen_core_weights(FREE, observations, 3, frozen_rho)
        assert rho == {0: 0.0, 1: 0.0, 2: 1.0}

    def test_observation_without_the_instruction_is_refused(self):
        observations = [
            KernelObservation(kernel=Microkernel.single(FREE), ipc=1.0),
            KernelObservation(kernel=Microkernel.single(FROZEN[0]), ipc=1.0),
        ]
        with pytest.raises(ValueError):
            solve_frozen_core_weights(FREE, observations, 2, {FROZEN[0]: {0: 1.0}})


class TestCharacterizeMachine:
    """Every LPAUX problem of the 32-instruction SKL-like benchmark machine."""

    @pytest.fixture(scope="class")
    def problems(self):
        machine = build_skylake_like_machine(isa=build_small_isa(32, seed=1))
        config = PalmedConfig(
            n_basic=None,
            n_basic_cap=6,
            max_resources=10,
            lp1_max_iterations=1,
            lp2_mode="exact",
        )
        runner = BenchmarkRunner(PortModelBackend(machine), config)
        instructions = [
            instruction
            for instruction in machine.benchmarkable_instructions()
            if runner.ipc_single(instruction) >= config.min_ipc
        ]
        selection = select_basic_instructions(
            QuadraticBenchmarks(runner, instructions), config
        )
        core = compute_core_mapping(runner, selection, config)
        remaining = [
            instruction
            for instruction in sorted(instructions, key=lambda inst: inst.name)
            if instruction not in core.basic_rho
        ]
        return config, core, [
            (instruction, _gather_observations(runner, instruction, core, config))
            for instruction in remaining
        ]

    def test_matches_milp_edges_and_weights(self, problems):
        config, core, items = problems
        assert len(items) > 10
        for instruction, observations in items:
            rho = solve_frozen_core_weights(
                instruction, observations, core.num_resources, core.basic_rho
            )
            reference = _reference(
                observations, instruction, core.basic_rho, core.num_resources
            )
            edges = {r for r, value in rho.items() if value >= config.edge_threshold}
            expected = {
                r for r, value in reference.items() if value >= config.edge_threshold
            }
            assert edges == expected, instruction.name
            for resource in range(core.num_resources):
                assert rho[resource] == pytest.approx(
                    reference[resource], abs=1e-12
                ), (instruction.name, resource)

    def test_vertex_block_size_does_not_change_the_answer(self, problems, monkeypatch):
        _, core, items = problems
        args = [
            (instruction, observations, core.num_resources, core.basic_rho)
            for instruction, observations in items
        ]
        whole = [solve_frozen_core_weights(*arg) for arg in args]
        monkeypatch.setattr(complete_mapping, "_VERTEX_BLOCK", 3)
        assert [solve_frozen_core_weights(*arg) for arg in args] == whole
