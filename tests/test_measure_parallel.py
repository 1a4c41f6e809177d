"""Differential tests for the batched measurement layer.

The contract under test: *how* measurements are obtained — scalar loop,
batched, served from a persistent cache — must never change a single bit
of the values, and therefore never change an inferred mapping.  Every test
here compares an alternative path against the plain sequential one with
``==`` on floats (bitwise equality), not with tolerances.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import (
    GreedyCycleSimulator,
    LpReferenceBackend,
    MeasurementNoise,
    Microkernel,
    PortModelBackend,
    build_toy_machine,
)
from repro.evaluation import evaluate_predictors
from repro.isa.instruction import Extension, Instruction, InstructionKind
from repro.measure import ParallelDispatcher
from repro.palmed import Palmed, PalmedConfig
from repro.palmed.benchmarks import BenchmarkRunner
from repro.workloads import BasicBlock, BenchmarkSuite


class _OSErrorBackend(PortModelBackend):
    """A backend whose batch measurement fails with an ``OSError``."""

    def measure_batch(self, kernels):
        raise OSError("measurement device unavailable")


def _random_kernels(machine, count=24, seed=7):
    rng = random.Random(seed)
    instructions = machine.benchmarkable_instructions()
    kernels = []
    for _ in range(count):
        picks = {
            rng.choice(instructions): rng.randint(1, 4)
            for _ in range(rng.randint(1, 3))
        }
        kernels.append(Microkernel(picks))
    return kernels


def _backend_factories(machine):
    return {
        "port-model": lambda: PortModelBackend(machine),
        "port-model-noisy": lambda: PortModelBackend(
            machine, noise=MeasurementNoise(relative_stddev=0.02, seed=3)
        ),
        "lp-reference": lambda: LpReferenceBackend(machine),
        "greedy-sim": lambda: GreedyCycleSimulator(machine, iterations=32),
    }


class TestMeasureBatch:
    """measure_batch() is bitwise identical to the scalar measure path."""

    @pytest.mark.parametrize("backend_kind", ["port-model", "port-model-noisy",
                                              "lp-reference", "greedy-sim"])
    def test_batch_equals_scalar(self, toy_machine, backend_kind):
        kernels = _random_kernels(toy_machine)
        scalar_backend = _backend_factories(toy_machine)[backend_kind]()
        batch_backend = _backend_factories(toy_machine)[backend_kind]()

        scalar = [scalar_backend.ipc(kernel) for kernel in kernels]
        batch = batch_backend.measure_batch(kernels)
        assert batch == scalar
        assert batch_backend.measurement_count == scalar_backend.measurement_count

    def test_empty_batch(self, toy_backend):
        assert toy_backend.measure_batch([]) == []


class TestParallelDispatcher:
    """Backend failures reach the caller; unmeasurable kernels are marked."""

    @pytest.mark.parametrize("bad_index", [0, 2])
    def test_measure_safe_marks_unknown_instructions(self, toy_machine, bad_index):
        # The unmeasurable kernel heads the batch or sits inside it.
        alien = Instruction("ALIEN_OP", InstructionKind.INT_ALU, Extension.BASE)
        kernels = _random_kernels(toy_machine, count=6)
        bad = Microkernel.single(alien)
        mixed = kernels[:bad_index] + [bad] + kernels[bad_index:]
        values = ParallelDispatcher().measure_safe(
            PortModelBackend(toy_machine), mixed
        )
        assert values[bad_index] is None
        expected = PortModelBackend(toy_machine).measure_batch(kernels)
        assert [v for v in values if v is not None] == expected

    @pytest.mark.parametrize("bad_index", [0, 2])
    def test_measure_propagates_unknown_instruction(self, toy_machine, bad_index):
        # An unknown instruction is the measurement's own failure: it
        # re-raises in the caller with its original type, wherever it
        # sits in the batch.
        alien = Instruction("ALIEN_OP", InstructionKind.INT_ALU, Extension.BASE)
        kernels = _random_kernels(toy_machine, count=4)
        kernels.insert(bad_index, Microkernel.single(alien))
        with pytest.raises(KeyError):
            ParallelDispatcher().measure(PortModelBackend(toy_machine), kernels)

    def test_measure_propagates_backend_oserror(self, toy_machine):
        kernels = _random_kernels(toy_machine, count=8)
        with pytest.raises(OSError, match="measurement device unavailable"):
            ParallelDispatcher().measure(_OSErrorBackend(toy_machine), kernels)


class TestRunnerBatchPath:
    """BenchmarkRunner.ipc_batch against the scalar runner path."""

    @pytest.mark.parametrize("quantize", [False, True])
    def test_batch_equals_scalar_runner(self, toy_machine, quantize):
        kernels = _random_kernels(toy_machine, count=20)
        # Include fractional multiplicities so quantization has work to do.
        fractional = [kernel.scaled(0.37) for kernel in kernels[:5]]
        kernels = kernels + fractional

        config = PalmedConfig(quantize_coefficients=quantize)
        scalar_runner = BenchmarkRunner(PortModelBackend(toy_machine), config)
        batch_runner = BenchmarkRunner(PortModelBackend(toy_machine), config)

        scalar = [scalar_runner.ipc(kernel) for kernel in kernels]
        batch = batch_runner.ipc_batch(kernels)
        assert batch == scalar
        assert batch_runner.num_benchmarks == scalar_runner.num_benchmarks

    def test_duplicates_measured_once(self, toy_machine, toy_instructions):
        kernel = Microkernel({toy_instructions["ADDSS"]: 1})
        backend = PortModelBackend(toy_machine)
        runner = BenchmarkRunner(backend)
        values = runner.ipc_batch([kernel, kernel, kernel])
        assert len(set(values)) == 1
        assert runner.num_benchmarks == 1
        assert backend.measurement_count == 1


class TestPipelineDifferential:
    """The acceptance check: the measurement cache never changes PalmedResult."""

    @pytest.fixture(scope="class")
    def toy_setup(self):
        machine = build_toy_machine()
        config = PalmedConfig().for_fast_tests()
        return machine, config

    @pytest.fixture(scope="class")
    def sequential_result(self, toy_setup):
        machine, config = toy_setup
        backend = PortModelBackend(machine)
        return Palmed(backend, machine.benchmarkable_instructions(), config).run()

    def test_parallel_and_cached_runs_match_sequential(
        self, toy_setup, sequential_result, tmp_path_factory
    ):
        machine, config = toy_setup
        cache_path = tmp_path_factory.mktemp("measure") / "toy.json"
        cached_config = dataclasses.replace(config, cache_path=str(cache_path))

        cold = Palmed(
            PortModelBackend(machine),
            machine.benchmarkable_instructions(),
            cached_config,
        ).run()
        assert cold.mapping.to_dict() == sequential_result.mapping.to_dict()
        assert cold.stats.num_benchmarks_cached == 0
        assert cold.stats.num_benchmarks_measured == sequential_result.stats.num_benchmarks

        warm = Palmed(
            PortModelBackend(machine),
            machine.benchmarkable_instructions(),
            cached_config,
        ).run()
        assert warm.mapping.to_dict() == sequential_result.mapping.to_dict()
        # The warm run measured nothing: every benchmark came from the cache.
        assert warm.stats.num_benchmarks_measured == 0
        assert warm.stats.num_benchmarks_cached == sequential_result.stats.num_benchmarks

        # Identical predictions on arbitrary kernels, not just identical tables.
        for kernel in _random_kernels(machine, count=10, seed=3):
            if all(warm.supports(inst) for inst in kernel.instructions):
                assert warm.predict_ipc(kernel) == sequential_result.predict_ipc(kernel)


class TestLaneParametersRefused:
    """Measurement runs in-process: the removed lane knobs raise, not pass."""

    def test_dispatcher_and_cache_parameters_refused(self, toy_machine):
        backend = PortModelBackend(toy_machine)
        instructions = toy_machine.benchmarkable_instructions()
        with pytest.raises(TypeError):
            Palmed(backend, instructions, dispatcher=None)
        with pytest.raises(TypeError):
            Palmed(backend, instructions, cache=None)
        with pytest.raises(TypeError):
            BenchmarkRunner(backend, dispatcher=None)
        with pytest.raises(TypeError):
            BenchmarkRunner(backend, cache=None)
        with pytest.raises(TypeError):
            ParallelDispatcher(workers=2)

    def test_evaluation_workers_refused(self, toy_machine):
        kernel = _random_kernels(toy_machine, count=1)[0]
        suite = BenchmarkSuite("one-block", [BasicBlock("b0", kernel)])
        with pytest.raises(TypeError):
            evaluate_predictors(PortModelBackend(toy_machine), suite, [], workers=2)
        with pytest.raises(TypeError):
            evaluate_predictors(
                PortModelBackend(toy_machine), suite, [], dispatcher=None
            )
