"""Differential tests for the batched/parallel measurement layer.

The contract under test: *how* measurements are executed — scalar loop,
batched, chunked over worker processes, served from a persistent cache —
must never change a single bit of the values, and therefore never change an
inferred mapping.  Every test here compares an alternative execution
strategy against the plain sequential path with ``==`` on floats (bitwise
equality), not with tolerances.
"""

from __future__ import annotations

import dataclasses
import random
import warnings

import pytest

from repro import (
    GreedyCycleSimulator,
    LpReferenceBackend,
    MeasurementNoise,
    Microkernel,
    PortModelBackend,
    build_toy_machine,
)
from repro.isa.instruction import Extension, Instruction, InstructionKind
from repro.measure import MeasurementCache, ParallelDispatcher
from repro.palmed import Palmed, PalmedConfig
from repro.palmed.benchmarks import BenchmarkRunner

WORKER_COUNTS = (0, 1, 2, 4)


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
    """Worker count never changes results or their order."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_all_worker_counts_bitwise_identical(self, toy_machine, workers):
        kernels = _random_kernels(toy_machine, count=30)
        reference = PortModelBackend(toy_machine).measure_batch(kernels)
        dispatched = ParallelDispatcher(workers=workers).measure(
            PortModelBackend(toy_machine), kernels
        )
        assert dispatched == reference

    @pytest.mark.parametrize("workers", [0, 2])
    def test_measure_safe_marks_unknown_instructions(self, toy_machine, workers):
        alien = Instruction("ALIEN_OP", InstructionKind.INT_ALU, Extension.BASE)
        kernels = _random_kernels(toy_machine, count=6)
        bad = Microkernel.single(alien)
        mixed = kernels[:3] + [bad] + kernels[3:]
        values = ParallelDispatcher(workers=workers).measure_safe(
            PortModelBackend(toy_machine), mixed
        )
        assert values[3] is None
        expected = PortModelBackend(toy_machine).measure_batch(kernels)
        assert [v for v in values if v is not None] == expected

    @pytest.mark.parametrize("workers", [0, 2])
    def test_measure_propagates_unknown_instruction(self, toy_machine, workers):
        # A backend error inside a worker must re-raise in the caller with
        # its original type — never be misread as "lanes unavailable" and
        # silently retried on the sequential path.
        alien = Instruction("ALIEN_OP", InstructionKind.INT_ALU, Extension.BASE)
        with pytest.raises(KeyError):
            ParallelDispatcher(workers=workers).measure(
                PortModelBackend(toy_machine), [Microkernel.single(alien)]
            )

    def test_measure_propagates_backend_oserror(self, toy_machine):
        # OSError is also what a broken lane pipe raises, but one raised
        # by the backend is the measurement's own failure: it must reach
        # the caller without the "lanes unavailable" fallback re-running
        # the batch in-process.
        kernels = _random_kernels(toy_machine, count=8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError, match="measurement device unavailable"):
                ParallelDispatcher(workers=2).measure(
                    _OSErrorBackend(toy_machine), kernels
                )
        fallbacks = [
            w for w in caught if "parallel execution unavailable" in str(w.message)
        ]
        assert fallbacks == []

    def test_noisy_backend_parallel_identical(self, toy_machine):
        noise = MeasurementNoise(relative_stddev=0.05, quantization=0.01, seed=11)
        kernels = _random_kernels(toy_machine, count=16)
        reference = PortModelBackend(toy_machine, noise=noise).measure_batch(kernels)
        parallel = ParallelDispatcher(workers=3).measure(
            PortModelBackend(toy_machine, noise=noise), kernels
        )
        assert parallel == reference

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParallelDispatcher(workers=-1)


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

    @pytest.mark.parametrize("workers", [2])
    def test_parallel_runner_equals_sequential(self, toy_machine, workers):
        kernels = _random_kernels(toy_machine, count=25)
        sequential = BenchmarkRunner(PortModelBackend(toy_machine)).ipc_batch(kernels)
        parallel_runner = BenchmarkRunner(
            PortModelBackend(toy_machine),
            PalmedConfig(parallelism=workers),
        )
        assert parallel_runner.ipc_batch(kernels) == sequential


class TestPipelineDifferential:
    """The acceptance check: execution strategy never changes PalmedResult."""

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
        cached_config = dataclasses.replace(
            config, parallelism=2, cache_path=str(cache_path)
        )

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
