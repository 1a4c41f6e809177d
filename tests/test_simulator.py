"""Tests for the measurement substrate (backends, noise, cycle simulator)."""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    GreedyCycleSimulator,
    LpReferenceBackend,
    MeasurementBackend,
    MeasurementNoise,
    Microkernel,
    PortModelBackend,
)
from repro.machines.toy import TOY_INSTRUCTIONS


class TestPortModelBackend:
    def test_implements_protocol(self, toy_backend):
        assert isinstance(toy_backend, MeasurementBackend)

    def test_matches_lp_reference(self, small_skl_machine):
        import random

        fast = PortModelBackend(small_skl_machine)
        reference = LpReferenceBackend(small_skl_machine)
        rng = random.Random(3)
        instructions = small_skl_machine.benchmarkable_instructions()
        for _ in range(20):
            kernel = Microkernel(
                {rng.choice(instructions): rng.randint(1, 3) for _ in range(3)}
            )
            assert fast.ipc(kernel) == pytest.approx(reference.ipc(kernel), rel=1e-6)

    def test_front_end_limits_ipc(self, small_skl_machine):
        backend = PortModelBackend(small_skl_machine)
        instructions = small_skl_machine.benchmarkable_instructions()
        big_kernel = Microkernel({inst: 2 for inst in instructions[:10]})
        assert backend.ipc(big_kernel) <= small_skl_machine.front_end_width + 1e-9

    def test_without_front_end_can_exceed_width(self, small_skl_machine):
        from repro.isa import InstructionKind

        alu = [
            inst for inst in small_skl_machine.instructions
            if inst.kind is InstructionKind.INT_ALU and inst.variant == 0
        ][:4]
        load = [
            inst for inst in small_skl_machine.instructions
            if inst.kind is InstructionKind.LOAD
        ][:2]
        kernel = Microkernel({**{i: 1 for i in alu}, **{i: 1 for i in load}})
        with_fe = PortModelBackend(small_skl_machine, include_front_end=True)
        without_fe = PortModelBackend(small_skl_machine, include_front_end=False)
        assert with_fe.ipc(kernel) <= 4.0 + 1e-9
        assert without_fe.ipc(kernel) > with_fe.ipc(kernel)

    def test_measurement_counter_counts_distinct_kernels(self, toy_machine):
        backend = PortModelBackend(toy_machine)
        addss = TOY_INSTRUCTIONS["ADDSS"]
        bsr = TOY_INSTRUCTIONS["BSR"]
        backend.ipc(Microkernel.single(addss))
        backend.ipc(Microkernel.single(addss))
        backend.ipc(Microkernel({addss: 1, bsr: 1}))
        assert backend.measurement_count == 2
        backend.reset_counter()
        assert backend.measurement_count == 0

    def test_cycles_and_ipc_consistent(self, toy_backend, addss_bsr_kernels):
        kernel, _ = addss_bsr_kernels
        assert toy_backend.ipc(kernel) == pytest.approx(
            kernel.size / toy_backend.cycles(kernel)
        )

    def test_constructor_takes_no_simulated_latency(self, toy_machine):
        # Measurements cost no wall time: the backend has no sleep knob,
        # and a keyword it does not declare is refused, never ignored.
        parameters = inspect.signature(PortModelBackend).parameters
        assert list(parameters) == ["machine", "noise", "include_front_end"]
        with pytest.raises(TypeError):
            PortModelBackend(toy_machine, latency=0.1)


class TestNoise:
    def test_noiseless_by_default(self):
        noise = MeasurementNoise()
        assert noise.is_noiseless

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MeasurementNoise(relative_stddev=-0.1)
        with pytest.raises(ValueError):
            MeasurementNoise(quantization=-1.0)

    def test_deterministic_per_kernel(self, toy_instructions):
        noise = MeasurementNoise(relative_stddev=0.05, seed=7)
        kernel = Microkernel.single(toy_instructions["ADDSS"], 2)
        assert noise.apply(kernel, 10.0) == noise.apply(kernel, 10.0)

    def test_different_kernels_get_different_noise(self, toy_instructions):
        noise = MeasurementNoise(relative_stddev=0.05, seed=7)
        k1 = Microkernel.single(toy_instructions["ADDSS"], 2)
        k2 = Microkernel.single(toy_instructions["BSR"], 2)
        assert noise.apply(k1, 10.0) != noise.apply(k2, 10.0)

    def test_quantization(self, toy_instructions):
        noise = MeasurementNoise(quantization=0.25)
        kernel = Microkernel.single(toy_instructions["ADDSS"])
        assert noise.apply(kernel, 1.13) == pytest.approx(1.25)

    def test_noise_magnitude_bounded(self, toy_instructions):
        noise = MeasurementNoise(relative_stddev=0.02, seed=1)
        kernel = Microkernel.single(toy_instructions["BSR"], 3)
        value = noise.apply(kernel, 100.0)
        assert 90.0 < value < 110.0

    @settings(max_examples=30, deadline=None)
    @given(cycles=st.floats(min_value=0.01, max_value=1e6))
    def test_noisy_measurement_stays_positive(self, cycles, toy_instructions):
        noise = MeasurementNoise(relative_stddev=0.1, quantization=0.01, seed=5)
        kernel = Microkernel.single(toy_instructions["ADDSS"])
        assert noise.apply(kernel, cycles) > 0

    def test_backend_with_noise_is_reproducible(self, toy_machine, addss_bsr_kernels):
        kernel, _ = addss_bsr_kernels
        backend_a = PortModelBackend(toy_machine, noise=MeasurementNoise(0.03, seed=2))
        backend_b = PortModelBackend(toy_machine, noise=MeasurementNoise(0.03, seed=2))
        assert backend_a.ipc(kernel) == backend_b.ipc(kernel)
        exact = PortModelBackend(toy_machine)
        assert backend_a.ipc(kernel) == pytest.approx(exact.ipc(kernel), rel=0.15)


class TestGreedyCycleSimulator:
    def test_never_faster_than_steady_state(self, toy_machine, addss_bsr_kernels):
        simulator = GreedyCycleSimulator(toy_machine, iterations=128)
        backend = PortModelBackend(toy_machine)
        for kernel in addss_bsr_kernels:
            assert simulator.ipc(kernel) <= backend.ipc(kernel) + 1e-9

    def test_converges_to_steady_state_on_toy(self, toy_machine, addss_bsr_kernels):
        simulator = GreedyCycleSimulator(toy_machine, iterations=512)
        backend = PortModelBackend(toy_machine)
        kernel, _ = addss_bsr_kernels
        assert simulator.ipc(kernel) == pytest.approx(backend.ipc(kernel), rel=0.05)

    def test_front_end_respected(self, small_skl_machine):
        from repro.isa import InstructionKind

        alu = [
            inst for inst in small_skl_machine.instructions
            if inst.kind is InstructionKind.INT_ALU
        ][:4]
        kernel = Microkernel({inst: 1 for inst in alu})
        simulator = GreedyCycleSimulator(small_skl_machine, iterations=64)
        assert simulator.ipc(kernel) <= small_skl_machine.front_end_width + 1e-9

    def test_port_utilization_reported(self, toy_machine, toy_instructions):
        simulator = GreedyCycleSimulator(toy_machine, iterations=32)
        trace = simulator.simulate(Microkernel.single(toy_instructions["BSR"], 2))
        utilization = trace.port_utilization()
        assert utilization["p1"] > 0.9
        assert utilization["p6"] == pytest.approx(0.0)

    def test_invalid_iterations(self, toy_machine):
        with pytest.raises(ValueError):
            GreedyCycleSimulator(toy_machine, iterations=0)

    def test_fractional_counts_are_scaled(self, toy_machine, toy_instructions):
        simulator = GreedyCycleSimulator(toy_machine, iterations=16)
        kernel = Microkernel({toy_instructions["ADDSS"]: 0.5, toy_instructions["BSR"]: 1.0})
        trace = simulator.simulate(kernel)
        assert trace.instructions_executed > 0
