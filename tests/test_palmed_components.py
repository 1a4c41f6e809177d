"""Tests for the individual stages of the PALMED pipeline (Sec. V)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    Microkernel,
    PortModelBackend,
    build_skylake_like_machine,
    build_small_isa,
    build_toy_machine,
)
from repro.isa import Extension, Instruction, InstructionKind
from repro.machines.toy import TOY_INSTRUCTIONS
from repro.palmed import PalmedConfig
from repro.palmed.basic_selection import select_basic_instructions
from repro.palmed.benchmarks import (
    BenchmarkRunner,
    mixes_vector_extensions,
    quantize_kernel,
    quantize_multiplicity,
)
from repro.palmed.clustering import (
    cluster_representatives,
    hierarchical_clusters,
    relative_distance,
)
from repro.palmed.core_mapping import (
    _seed_observations,
    compute_core_mapping,
    resource_label,
)
from repro.palmed.lp1_shape import KernelObservation, saturating_instructions, solve_shape
from repro.palmed.lp2_weights import (
    WeightProblem,
    kernel_resource_usage,
    solve_weights_exact,
    solve_weights_heuristic,
)
from repro.palmed.quadratic import QuadraticBenchmarks
from repro.solvers import InfeasibleError, SolveStats, use_stats


@pytest.fixture(scope="module")
def toy_runner():
    machine = build_toy_machine()
    return BenchmarkRunner(PortModelBackend(machine), PalmedConfig())


@pytest.fixture(scope="module")
def toy_quadratic(toy_runner):
    machine = build_toy_machine()
    return QuadraticBenchmarks(toy_runner, machine.benchmarkable_instructions())


class TestQuantization:
    def test_quantize_multiplicity_exact_value(self):
        assert quantize_multiplicity(2.0) == 2.0

    def test_quantize_multiplicity_snaps_to_rational(self):
        assert quantize_multiplicity(0.3333) == pytest.approx(1.0 / 3.0, rel=1e-3)

    def test_quantize_multiplicity_rejects_non_positive(self):
        with pytest.raises(ValueError):
            quantize_multiplicity(0.0)

    def test_quantize_kernel(self, toy_runner):
        addss = TOY_INSTRUCTIONS["ADDSS"]
        kernel = quantize_kernel(Microkernel.single(addss, 1.99999))
        assert kernel.multiplicity(addss) == pytest.approx(2.0)

    def test_mixes_vector_extensions(self):
        sse = Instruction("S_OP", InstructionKind.FP_ADD, Extension.SSE, 128)
        avx = Instruction("A_OP", InstructionKind.FP_ADD, Extension.AVX, 256)
        base = Instruction("B_OP", InstructionKind.INT_ALU, Extension.BASE, 64)
        assert mixes_vector_extensions(sse, avx)
        assert not mixes_vector_extensions(sse, base)
        assert not mixes_vector_extensions(base, base)


class TestBenchmarkRunner:
    def test_single_ipc(self, toy_runner):
        assert toy_runner.ipc_single(TOY_INSTRUCTIONS["ADDSS"]) == pytest.approx(2.0)
        assert toy_runner.ipc_single(TOY_INSTRUCTIONS["BSR"]) == pytest.approx(1.0)

    def test_pair_kernel_uses_measured_ipcs(self, toy_runner):
        kernel = toy_runner.pair_kernel(TOY_INSTRUCTIONS["ADDSS"], TOY_INSTRUCTIONS["BSR"])
        assert kernel.multiplicity(TOY_INSTRUCTIONS["ADDSS"]) == pytest.approx(2.0)
        assert kernel.multiplicity(TOY_INSTRUCTIONS["BSR"]) == pytest.approx(1.0)

    def test_pair_kernel_rejects_same_instruction(self, toy_runner):
        with pytest.raises(ValueError):
            toy_runner.pair_kernel(TOY_INSTRUCTIONS["ADDSS"], TOY_INSTRUCTIONS["ADDSS"])

    def test_repeated_pair_kernel_shape(self, toy_runner):
        kernel = toy_runner.repeated_pair_kernel(
            TOY_INSTRUCTIONS["ADDSS"], TOY_INSTRUCTIONS["BSR"]
        )
        assert kernel.multiplicity(TOY_INSTRUCTIONS["ADDSS"]) == 4.0
        assert kernel.multiplicity(TOY_INSTRUCTIONS["BSR"]) == 1.0

    def test_saturating_benchmark_scales_kernel(self, toy_runner):
        saturating = Microkernel.single(TOY_INSTRUCTIONS["BSR"])
        kernel = toy_runner.saturating_benchmark(TOY_INSTRUCTIONS["ADDSS"], saturating)
        assert kernel.multiplicity(TOY_INSTRUCTIONS["BSR"]) == 4.0
        assert kernel.multiplicity(TOY_INSTRUCTIONS["ADDSS"]) == pytest.approx(2.0)

    def test_cycles_from_ipc(self, toy_runner, addss_bsr_kernels):
        kernel, _ = addss_bsr_kernels
        assert toy_runner.cycles(kernel) == pytest.approx(1.5)


class TestClustering:
    def test_relative_distance_basic(self):
        assert relative_distance(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert relative_distance(np.array([1.0]), np.array([2.0])) == pytest.approx(0.5)

    def test_relative_distance_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_distance(np.array([1.0]), np.array([1.0, 2.0]))

    def test_identical_vectors_cluster_together(self):
        vectors = {"a": np.array([1.0, 2.0]), "b": np.array([1.0, 2.0]),
                   "c": np.array([5.0, 5.0])}
        clusters = hierarchical_clusters(vectors, tolerance=0.01)
        as_sets = [set(members) for members in clusters]
        assert {"a", "b"} in as_sets
        assert {"c"} in as_sets

    def test_tolerance_controls_merging(self):
        vectors = {"a": np.array([1.0]), "b": np.array([1.04]), "c": np.array([2.0])}
        tight = hierarchical_clusters(vectors, tolerance=0.01)
        loose = hierarchical_clusters(vectors, tolerance=0.10)
        assert len(tight) == 3
        assert len(loose) == 2

    def test_empty_and_singleton(self):
        assert hierarchical_clusters({}, 0.1) == []
        assert hierarchical_clusters({"a": np.array([1.0])}, 0.1) == [["a"]]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_clusters({"a": np.array([1.0]), "b": np.array([2.0])}, -1.0)

    def test_representatives_pick_highest_score(self):
        clusters = [["a", "b"], ["c"]]
        reps = cluster_representatives(clusters, {"a": 1.0, "b": 2.0, "c": 0.5})
        assert set(reps) == {"b", "c"}
        assert reps["b"] == ["a", "b"]


class TestQuadraticBenchmarks:
    def test_pair_ipc_symmetry(self, toy_quadratic):
        a = TOY_INSTRUCTIONS["ADDSS"]
        b = TOY_INSTRUCTIONS["BSR"]
        assert toy_quadratic.pair_ipc(a, b) == toy_quadratic.pair_ipc(b, a)

    def test_pair_ipc_matches_paper(self, toy_quadratic):
        a = TOY_INSTRUCTIONS["ADDSS"]
        b = TOY_INSTRUCTIONS["BSR"]
        # ADDSS^2 BSR^1 has IPC 2 (Fig. 2a).
        assert toy_quadratic.pair_ipc(a, b) == pytest.approx(2.0)

    def test_disjointness(self, toy_quadratic):
        bsr = TOY_INSTRUCTIONS["BSR"]
        jmp = TOY_INSTRUCTIONS["JMP"]
        addss = TOY_INSTRUCTIONS["ADDSS"]
        assert toy_quadratic.are_disjoint(bsr, jmp, epsilon=0.05)
        assert not toy_quadratic.are_disjoint(addss, bsr, epsilon=0.05)
        assert not toy_quadratic.are_disjoint(bsr, bsr, epsilon=0.05)

    def test_behaviour_vector_length(self, toy_quadratic):
        vector = toy_quadratic.behaviour_vector(TOY_INSTRUCTIONS["ADDSS"])
        assert vector.shape == (len(toy_quadratic.instructions) + 1,)

    def test_matrix_diagonal_is_single_ipc(self, toy_quadratic):
        order, matrix = toy_quadratic.as_matrix()
        for index, instruction in enumerate(order):
            assert matrix[index, index] == pytest.approx(
                toy_quadratic.single_ipc(instruction)
            )

    def test_greediness_ordering(self, toy_quadratic):
        # ADDSS (2 ports) keeps pairs faster than BSR (1 port): it is greedier.
        assert toy_quadratic.greediness_score(
            TOY_INSTRUCTIONS["ADDSS"]
        ) > toy_quadratic.greediness_score(TOY_INSTRUCTIONS["BSR"])

    def test_num_pairs(self, toy_quadratic):
        n = len(toy_quadratic.instructions)
        assert toy_quadratic.num_pairs == n * (n - 1) // 2

    def test_benchmark_count_grows_quadratically(self):
        # The paper's scalability argument: the selection phase measures
        # every pair, so its benchmark count tracks the squared ISA size.
        counts = []
        for size in (12, 24, 36, 48):
            machine = build_skylake_like_machine(isa=build_small_isa(size, seed=0))
            backend = PortModelBackend(machine)
            instructions = machine.benchmarkable_instructions()
            QuadraticBenchmarks(BenchmarkRunner(backend, PalmedConfig()), instructions)
            counts.append((len(instructions), backend.measurement_count))
        (n_small, smallest), (n_large, largest) = counts[0], counts[-1]
        size_ratio = (n_large / n_small) ** 2
        assert 0.3 * size_ratio <= largest / smallest <= 3.0 * size_ratio


class TestBasicSelection:
    def test_toy_selection_covers_all_classes(self, toy_quadratic):
        config = PalmedConfig()
        selection = select_basic_instructions(toy_quadratic, config)
        # The six toy instructions all behave differently.
        assert selection.num_classes == 6
        assert len(selection.basic) == 6
        assert not selection.low_ipc

    def test_explicit_n_basic_is_respected(self, toy_quadratic):
        config = PalmedConfig(n_basic=4)
        selection = select_basic_instructions(toy_quadratic, config)
        assert len(selection.basic) == 4

    def test_very_basic_is_a_disjoint_clique(self, toy_quadratic):
        selection = select_basic_instructions(toy_quadratic, PalmedConfig())
        for i, a in enumerate(selection.very_basic):
            for b in selection.very_basic[i + 1 :]:
                assert toy_quadratic.are_disjoint(a, b, 0.05)

    def test_non_disjoint_partners(self, toy_quadratic):
        selection = select_basic_instructions(toy_quadratic, PalmedConfig())
        addss = TOY_INSTRUCTIONS["ADDSS"]
        bsr = TOY_INSTRUCTIONS["BSR"]
        if addss in selection.representatives and bsr in selection.representatives:
            assert bsr in selection.non_disjoint_partners(addss)

    def test_class_of_unknown_instruction_raises(self, toy_quadratic):
        selection = select_basic_instructions(toy_quadratic, PalmedConfig())
        stranger = Instruction("STRANGER", InstructionKind.INT_ALU, Extension.BASE, 64)
        with pytest.raises(KeyError):
            selection.class_of(stranger)


class TestLp1AndLp2:
    @pytest.fixture(scope="class")
    def toy_core(self):
        machine = build_toy_machine()
        runner = BenchmarkRunner(PortModelBackend(machine), PalmedConfig())
        quadratic = QuadraticBenchmarks(runner, machine.benchmarkable_instructions())
        selection = select_basic_instructions(quadratic, PalmedConfig())
        core = compute_core_mapping(runner, selection, PalmedConfig())
        return machine, runner, selection, core

    def test_saturating_instruction_detection(self, toy_runner):
        bsr = TOY_INSTRUCTIONS["BSR"]
        addss = TOY_INSTRUCTIONS["ADDSS"]
        kernel = Microkernel({addss: 1, bsr: 2})
        observation = KernelObservation(kernel=kernel, ipc=toy_runner.ipc(kernel))
        single_ipc = {bsr: 1.0, addss: 2.0}
        saturating = saturating_instructions(observation, single_ipc, epsilon=0.05)
        assert bsr in saturating
        assert addss not in saturating

    def test_shape_has_enough_resources(self, toy_core):
        _, _, selection, core = toy_core
        # The toy machine needs at least the three port-like resources.
        assert core.num_resources >= 3
        for instruction in selection.basic:
            assert core.shape.edges[instruction], instruction.name

    def test_core_mapping_reproduces_basic_ipcs(self, toy_core):
        machine, runner, selection, core = toy_core
        mapping = core.mapping()
        for instruction in selection.basic:
            kernel = Microkernel.single(instruction, 4)
            predicted = mapping.ipc(kernel)
            native = runner.ipc(kernel)
            assert predicted == pytest.approx(native, rel=0.15), instruction.name

    def test_saturating_kernels_exist_for_every_resource(self, toy_core):
        _, _, _, core = toy_core
        assert set(core.saturating_kernels) == set(range(core.num_resources))

    def test_resource_label(self):
        assert resource_label(3) == "R3"

    def test_weight_problem_rejects_overlapping_free_and_frozen(self, toy_runner):
        addss = TOY_INSTRUCTIONS["ADDSS"]
        observation = KernelObservation(
            kernel=Microkernel.single(addss), ipc=toy_runner.ipc(Microkernel.single(addss))
        )
        with pytest.raises(ValueError):
            WeightProblem(
                observations=[observation],
                num_resources=2,
                free_edges={addss: {0}},
                frozen_rho={addss: {0: 1.0}},
            )

    def test_exact_and_heuristic_agree_on_tiny_problem(self, toy_runner):
        addss = TOY_INSTRUCTIONS["ADDSS"]
        bsr = TOY_INSTRUCTIONS["BSR"]
        observations = []
        for kernel in (
            Microkernel.single(addss),
            Microkernel.single(bsr),
            Microkernel({addss: 2, bsr: 1}),
            Microkernel({addss: 1, bsr: 2}),
        ):
            observations.append(
                KernelObservation(kernel=kernel, ipc=toy_runner.ipc(kernel))
            )
        problem = WeightProblem(
            observations=observations,
            num_resources=2,
            free_edges={addss: {0, 1}, bsr: {0, 1}},
            frozen_rho={},
        )
        config = PalmedConfig()
        exact = solve_weights_exact(problem, config)
        heuristic = solve_weights_heuristic(problem, config)
        assert exact.total_error <= heuristic.total_error + 1e-6
        assert exact.total_error == pytest.approx(0.0, abs=0.05)

    def test_kernel_resource_usage_evaluation(self, toy_runner):
        addss = TOY_INSTRUCTIONS["ADDSS"]
        kernel = Microkernel.single(addss, 2)
        observation = KernelObservation(kernel=kernel, ipc=toy_runner.ipc(kernel))
        usage = kernel_resource_usage(observation, 0, {addss: {0: 0.5}}, {})
        assert usage == pytest.approx(1.0)


def _shape_inputs(machine, config):
    """LP1's inputs, built as the core stage builds them."""
    runner = BenchmarkRunner(PortModelBackend(machine), config)
    quadratic = QuadraticBenchmarks(runner, machine.benchmarkable_instructions())
    selection = select_basic_instructions(quadratic, config)
    runner.prefetch(Microkernel.single(inst) for inst in selection.basic)
    single_ipc = {inst: runner.ipc_single(inst) for inst in selection.basic}
    return _seed_observations(runner, selection), selection, single_ipc


class TestLp1Exact:
    """LP1 pins the very-basic private resources and proves its optimum."""

    def _solve(self, machine, config):
        observations, selection, single_ipc = _shape_inputs(machine, config)
        stats = SolveStats()
        with use_stats(stats):
            shape = solve_shape(observations, selection, single_ipc, config)
        return shape, selection, stats

    def _assert_exact(self, shape, selection, stats, resources, edges):
        assert shape.num_resources == resources
        assert sum(len(used) for used in shape.edges.values()) == edges
        assert stats.limit_solves == 0
        assert stats.worst_mip_gap == 0.0
        for i, inst in enumerate(selection.very_basic):
            assert i in shape.edges[inst], inst.name
            users = [other for other in selection.very_basic if i in shape.edges[other]]
            assert users == [inst]

    def test_toy_shape_is_optimal_and_pinned(self):
        config = PalmedConfig().for_fast_tests()
        shape, selection, stats = self._solve(build_toy_machine(), config)
        # A 2% gap stops at 17 edges here, and LP2 then takes 7x longer.
        self._assert_exact(shape, selection, stats, resources=5, edges=13)

    def test_skylake_like_shape_is_optimal_and_pinned(self):
        machine = build_skylake_like_machine(isa=build_small_isa(32, seed=1))
        config = PalmedConfig(n_basic_cap=6, max_resources=10, lp1_max_iterations=1)
        shape, selection, stats = self._solve(machine, config)
        self._assert_exact(shape, selection, stats, resources=6, edges=11)

    def test_too_few_resources_for_very_basic_raises_before_solving(self):
        config = dataclasses.replace(PalmedConfig().for_fast_tests(), max_resources=2)
        observations, selection, single_ipc = _shape_inputs(build_toy_machine(), config)
        assert len(selection.very_basic) == 3
        stats = SolveStats()
        with use_stats(stats), pytest.raises(InfeasibleError):
            solve_shape(observations, selection, single_ipc, config)
        assert stats.solves == 0
