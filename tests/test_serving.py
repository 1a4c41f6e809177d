"""Differential and behavioural suite for the online serving subsystem.

The acceptance contract of :mod:`repro.serving`:

* **any** interleaving of concurrent requests across several machine
  fingerprints yields results bitwise-identical to a serial per-request
  scalar evaluation;
* overload beyond the admission bound is refused with a typed error and
  nothing is ever silently dropped;
* the hot-mapping cache stays within its capacity and reports eviction
  statistics;
* the registry is consumed read-only.
"""

from __future__ import annotations

import json
import random
import struct
import threading
import time

import pytest

from repro import Microkernel
from repro.artifacts import (
    ArtifactNotFoundError,
    ArtifactRegistry,
    MappingArtifact,
    RegistryReadOnlyError,
)
from repro.measure.fingerprint import machine_fingerprint
from repro.palmed.result import PalmedStats
from repro.predictors import MappingMatrix, PalmedPredictor
from repro.predictors.batch import LoweredBatchBuilder, instruction_id
from repro.runtime import WorkerLane
from repro.serving import (
    HotMappingCache,
    LineProtocolServer,
    MicroBatcher,
    PredictionService,
    ServiceClosedError,
    ServiceOverloadedError,
    ServingClient,
    UnknownMachineError,
    serve_stdio,
)


def bits(value):
    return struct.pack("<d", value)


def assert_same_prediction(left, right, context=""):
    assert (left.ipc is None) == (right.ipc is None), context
    if left.ipc is not None:
        assert bits(left.ipc) == bits(right.ipc), context
    assert bits(left.supported_fraction) == bits(right.supported_fraction), context


def make_artifact(
    machine,
    include_front_end: bool = True,
    throughput_scale: float = 1.0,
) -> MappingArtifact:
    """A serving artifact from the machine's ground-truth conjunctive dual.

    ``include_front_end=False`` or ``throughput_scale != 1`` yield a
    *different mapping for the same fingerprint* — what a republished
    (v2) artifact looks like on disk, which the cluster republish tests
    exploit; a scaled mapping changes every supported prediction, so a
    hot swap is observable on any block.
    """
    stats = PalmedStats(
        machine_name=machine.name,
        num_instructions_total=len(machine.instructions),
        num_benchmarkable=len(machine.benchmarkable_instructions()),
        num_instructions_mapped=len(machine.benchmarkable_instructions()),
        num_basic_instructions=0,
        num_resources=0,
        num_benchmarks=0,
        num_equivalence_classes=0,
        num_low_ipc=0,
        lp1_iterations=0,
        benchmarking_time=0.0,
        lp_time=0.0,
        total_time=0.0,
    )
    mapping = machine.true_conjunctive(include_front_end=include_front_end)
    if throughput_scale != 1.0:
        from repro.mapping.conjunctive import ConjunctiveResourceMapping

        mapping = ConjunctiveResourceMapping(
            {
                name: throughput_scale * mapping.throughput_of(name)
                for name in mapping.resources
            },
            {ins: mapping.usage_of(ins) for ins in mapping.instructions},
        )
    return MappingArtifact(
        machine_name=machine.name,
        machine_fingerprint=machine_fingerprint(machine),
        mapping=mapping,
        stats=stats,
    )


def random_kernels(instructions, n, seed, max_distinct=10):
    rng = random.Random(seed)
    kernels = []
    for _ in range(n):
        distinct = rng.randint(1, min(max_distinct, len(instructions)))
        chosen = rng.sample(list(instructions), distinct)
        kernels.append(
            Microkernel(
                {inst: rng.choice([0.25, 0.5, 1.0, 2.0, 3.0]) for inst in chosen}
            )
        )
    return kernels


@pytest.fixture(scope="module")
def serving_registry(tmp_path_factory, toy_machine, small_skl_machine):
    root = tmp_path_factory.mktemp("serving-registry")
    registry = ArtifactRegistry(root)
    registry.save(make_artifact(toy_machine))
    registry.save(make_artifact(small_skl_machine))
    return root


@pytest.fixture(scope="module")
def reference_predictors(toy_machine, small_skl_machine):
    """Scalar per-request reference, one per machine fingerprint."""
    return {
        machine_fingerprint(machine): PalmedPredictor(
            machine.true_conjunctive(include_front_end=True)
        )
        for machine in (toy_machine, small_skl_machine)
    }


class TestWorkerLane:
    def test_runs_body_until_stopped(self):
        ticks = []
        done = threading.Event()

        def body(stop):
            ticks.append(1)
            done.set()
            stop.wait(0.01)

        lane = WorkerLane(body, name="test-lane").start()
        assert done.wait(5.0)
        assert lane.running
        lane.stop(join=True)
        assert not lane.running
        assert ticks

    def test_start_stop_idempotent(self):
        lane = WorkerLane(lambda stop: stop.wait(0.01))
        lane.start()
        lane.start()
        lane.stop()
        lane.stop()
        assert not lane.running


class TestMicroBatcher:
    def test_coalesces_queued_submissions_into_one_batch(self):
        batches = []

        def process(payloads):
            batches.append(len(payloads))
            return [p * 2 for p in payloads]

        batcher = MicroBatcher(process, max_batch_size=64)
        futures = [batcher.submit(i) for i in range(10)]
        batcher.start()
        assert [f.result(5.0) for f in futures] == [2 * i for i in range(10)]
        batcher.close()
        assert batches and max(batches) > 1, "queued burst should coalesce"
        assert sum(batches) == 10

    def test_max_batch_size_respected(self):
        batches = []

        def process(payloads):
            batches.append(len(payloads))
            return list(payloads)

        batcher = MicroBatcher(process, max_batch_size=4)
        futures = [batcher.submit(i) for i in range(10)]
        batcher.start()
        for future in futures:
            future.result(5.0)
        batcher.close()
        assert max(batches) <= 4

    def test_groups_never_split(self):
        batches = []

        def process(payloads):
            batches.append(list(payloads))
            return list(payloads)

        batcher = MicroBatcher(process, max_batch_size=2)
        future = batcher.submit_many([1, 2, 3, 4, 5])
        batcher.start()
        assert future.result(5.0) == [1, 2, 3, 4, 5]
        batcher.close()
        assert [1, 2, 3, 4, 5] in batches

    def test_max_wait_lingers_for_stragglers(self):
        def process(payloads):
            return list(payloads)

        batcher = MicroBatcher(process, max_batch_size=64, max_wait_s=0.5)
        batcher.start()
        first = batcher.submit("a")
        time.sleep(0.05)
        second = batcher.submit("b")
        assert first.result(5.0) == "a" and second.result(5.0) == "b"
        batcher.close()
        assert batcher.stats.snapshot()["batches_flushed"] == 1
        assert batcher.stats.snapshot()["batch_occupancy_max"] == 2

    def test_process_failure_propagates_to_every_future(self):
        def process(payloads):
            raise ValueError("engine exploded")

        batcher = MicroBatcher(process)
        futures = [batcher.submit(i) for i in range(3)]
        batcher.start()
        for future in futures:
            with pytest.raises(ValueError, match="engine exploded"):
                future.result(5.0)
        batcher.close()
        snap = batcher.stats.snapshot()
        assert snap["requests_failed"] == 3
        assert snap["requests_completed"] == 0

    def test_closed_batcher_refuses_submissions(self):
        batcher = MicroBatcher(lambda payloads: list(payloads))
        batcher.start()
        batcher.close()
        with pytest.raises(ServiceClosedError):
            batcher.submit(1)

    def test_close_without_drain_fails_queued_futures(self):
        batcher = MicroBatcher(lambda payloads: list(payloads))
        future = batcher.submit(1)  # never started: stays queued
        batcher.close(drain=False)
        with pytest.raises(ServiceClosedError):
            future.result(5.0)

    def test_close_of_never_started_batcher_fails_queued_futures(self):
        """drain=True on a lane that never ran must still answer everything."""
        batcher = MicroBatcher(lambda payloads: list(payloads))
        future = batcher.submit(1)
        batcher.close(drain=True)  # nothing can drain: lane never started
        with pytest.raises(ServiceClosedError):
            future.result(5.0)
        assert batcher.pending == 0
        snap = batcher.stats.snapshot()
        assert snap["requests_admitted"] == 1
        assert snap["requests_failed"] == 1, "abandoned kernels must be accounted"

    def test_cancelled_future_not_counted_completed(self):
        batcher = MicroBatcher(lambda payloads: list(payloads))
        kept = batcher.submit("kept")
        dropped = batcher.submit("dropped")
        assert dropped.cancel()
        batcher.start()
        assert kept.result(5.0) == "kept"
        batcher.close()
        snap = batcher.stats.snapshot()
        assert snap["requests_completed"] == 1
        assert snap["requests_failed"] == 1  # the cancelled kernel
        assert snap["requests_admitted"] == 2


class TestAdmissionControl:
    def test_overload_is_refused_with_typed_error_never_dropped(
        self, serving_registry, toy_machine, reference_predictors
    ):
        instructions = toy_machine.benchmarkable_instructions()
        kernels = random_kernels(instructions, 12, seed=3)
        service = PredictionService(serving_registry, max_pending=8)
        fingerprint = machine_fingerprint(toy_machine)
        # Not started: submissions queue against the admission bound.
        futures = [service.submit(fingerprint, k) for k in kernels[:8]]
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit(fingerprint, kernels[8])
        assert excinfo.value.pending == 8
        assert excinfo.value.bound == 8
        snapshot = service.snapshot()
        assert snapshot["requests_refused"] == 1
        assert snapshot["requests_admitted"] == 8

        # Everything admitted is served (bitwise) once the lanes start.
        service.start()
        reference = reference_predictors[fingerprint]
        for kernel, future in zip(kernels[:8], futures):
            assert_same_prediction(future.result(10.0), reference.predict(kernel))
        service.stop()
        snapshot = service.snapshot()
        assert snapshot["requests_completed"] == 8
        assert snapshot["requests_failed"] == 0

    def test_group_refused_atomically(self, serving_registry, toy_machine):
        instructions = toy_machine.benchmarkable_instructions()
        kernels = random_kernels(instructions, 6, seed=4)
        service = PredictionService(serving_registry, max_pending=4)
        fingerprint = machine_fingerprint(toy_machine)
        service.submit(fingerprint, kernels[0])
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit_many(fingerprint, kernels[1:6])
        assert excinfo.value.requested == 5
        # The refused group must not have been partially admitted.
        assert service.snapshot()["requests_admitted"] == 1
        service.start()
        service.stop()

    def test_unknown_fingerprint_refused_at_submit(self, serving_registry):
        service = PredictionService(serving_registry)
        with pytest.raises(ArtifactNotFoundError):
            service.submit("0" * 64, Microkernel.single(_placeholder()))
        service.stop()

    def test_stopped_service_refuses_fresh_fingerprints_too(
        self, serving_registry, toy_machine, small_skl_machine
    ):
        """After stop(), a fingerprint that never had a lane is refused
        like any other — no orphan lane whose futures would hang."""
        kernel = Microkernel.single(toy_machine.benchmarkable_instructions()[0])
        service = PredictionService(serving_registry)
        service.start()
        service.predict(machine_fingerprint(toy_machine), kernel, timeout=10.0)
        service.stop()
        with pytest.raises(ServiceClosedError):
            service.submit(machine_fingerprint(toy_machine), kernel)
        with pytest.raises(ServiceClosedError):
            # This fingerprint was never routed before the stop.
            service.submit(
                machine_fingerprint(small_skl_machine),
                Microkernel.single(
                    small_skl_machine.benchmarkable_instructions()[0]
                ),
            )


def _placeholder():
    from repro.isa.instruction import Extension, Instruction, InstructionKind

    return Instruction("PLACEHOLDER", InstructionKind.INT_ALU, Extension.BASE)


class TestDifferentialConcurrent:
    """The acceptance differential: interleavings across >= 2 fingerprints."""

    def test_concurrent_interleavings_bitwise_equal_serial(
        self,
        serving_registry,
        toy_machine,
        small_skl_machine,
        reference_predictors,
    ):
        fingerprints = [
            machine_fingerprint(toy_machine),
            machine_fingerprint(small_skl_machine),
        ]
        pools = {
            fingerprints[0]: toy_machine.benchmarkable_instructions(),
            fingerprints[1]: small_skl_machine.benchmarkable_instructions(),
        }
        num_threads, per_thread = 8, 40
        outcomes = [None] * num_threads

        with PredictionService(serving_registry, max_batch_size=32) as service:

            def client(index):
                rng = random.Random(1000 + index)
                sent = []
                futures = []
                for step in range(per_thread):
                    fingerprint = fingerprints[rng.randrange(2)]
                    kernel = random_kernels(
                        pools[fingerprint], 1, seed=rng.randrange(1 << 30)
                    )[0]
                    sent.append((fingerprint, kernel))
                    futures.append(service.submit(fingerprint, kernel))
                outcomes[index] = (sent, [f.result(30.0) for f in futures])

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = service.snapshot()

        for index, (sent, results) in enumerate(outcomes):
            for step, ((fingerprint, kernel), result) in enumerate(
                zip(sent, results)
            ):
                reference = reference_predictors[fingerprint].predict(kernel)
                assert_same_prediction(
                    result, reference, f"thread {index} step {step}"
                )

        total = num_threads * per_thread
        assert snapshot["requests_admitted"] == total
        assert snapshot["requests_completed"] == total
        assert snapshot["requests_refused"] == 0
        assert snapshot["requests_failed"] == 0
        assert len(snapshot["requests_by_fingerprint"]) == 2

    def test_submit_many_groups_bitwise_equal_serial(
        self, serving_registry, small_skl_machine, reference_predictors
    ):
        fingerprint = machine_fingerprint(small_skl_machine)
        kernels = random_kernels(
            small_skl_machine.benchmarkable_instructions(), 50, seed=7
        )
        with PredictionService(serving_registry) as service:
            group = service.predict_many(fingerprint, kernels)
        reference = reference_predictors[fingerprint]
        assert len(group) == len(kernels)
        for kernel, result in zip(kernels, group):
            assert_same_prediction(result, reference.predict(kernel))

    def test_service_predictor_matches_direct_predictor(
        self, serving_registry, small_skl_machine, reference_predictors
    ):
        """The harness integration path: Predictor protocol through the service."""
        fingerprint = machine_fingerprint(small_skl_machine)
        kernels = random_kernels(
            small_skl_machine.benchmarkable_instructions(), 60, seed=8
        )
        direct = reference_predictors[fingerprint]
        with PredictionService(serving_registry) as service:
            served = service.predictor(fingerprint)
            assert served.name == "Palmed"
            batch = served.predict_batch(kernels)
            single = served.predict(kernels[0])
            supports = [
                served.supports(inst)
                for inst in small_skl_machine.benchmarkable_instructions()[:5]
            ]
        for kernel, result in zip(kernels, batch):
            assert_same_prediction(result, direct.predict(kernel))
        assert_same_prediction(single, direct.predict(kernels[0]))
        assert supports == [
            direct.supports(inst)
            for inst in small_skl_machine.benchmarkable_instructions()[:5]
        ]

    def test_harness_through_service_equals_direct(
        self, serving_registry, toy_machine, toy_backend, reference_predictors
    ):
        """Fig. 4b metrics computed through the service match the direct path."""
        from repro.evaluation import evaluate_predictors
        from repro.workloads import generate_spec_like_suite

        fingerprint = machine_fingerprint(toy_machine)
        suite = generate_spec_like_suite(
            toy_machine.instructions, n_blocks=15, seed=0
        )
        direct = evaluate_predictors(
            toy_backend,
            suite,
            [reference_predictors[fingerprint]],
            machine_name=toy_machine.name,
        ).metrics("Palmed")
        with PredictionService(serving_registry) as service:
            served = evaluate_predictors(
                toy_backend,
                suite,
                [service.predictor(fingerprint)],
                machine_name=toy_machine.name,
            ).metrics("Palmed")
        assert bits(served.coverage) == bits(direct.coverage)
        assert bits(served.rms_error) == bits(direct.rms_error)
        assert served.kendall_tau == direct.kendall_tau


class TestHotMappingCache:
    def test_lru_eviction_within_capacity(
        self, serving_registry, toy_machine, small_skl_machine
    ):
        fp_toy = machine_fingerprint(toy_machine)
        fp_skl = machine_fingerprint(small_skl_machine)
        registry = ArtifactRegistry(serving_registry, readonly=True)
        cache = HotMappingCache(registry, capacity=1)
        cache.get(fp_toy)
        assert cache.resident_fingerprints() == (fp_toy,)
        cache.get(fp_skl)
        assert cache.resident_fingerprints() == (fp_skl,)
        cache.get(fp_toy)
        snap = cache.stats.snapshot()
        assert snap["mapping_cache_evictions"] == 2
        assert snap["mapping_cache_misses"] == 3
        assert len(cache) == 1

    def test_eviction_does_not_affect_results(
        self, serving_registry, toy_machine, small_skl_machine, reference_predictors
    ):
        fp_toy = machine_fingerprint(toy_machine)
        fp_skl = machine_fingerprint(small_skl_machine)
        kernels = {
            fp_toy: random_kernels(toy_machine.benchmarkable_instructions(), 6, 1),
            fp_skl: random_kernels(
                small_skl_machine.benchmarkable_instructions(), 6, 2
            ),
        }
        with PredictionService(
            serving_registry, mapping_cache_capacity=1
        ) as service:
            for round_index in range(3):
                for fingerprint in (fp_toy, fp_skl):
                    kernel = kernels[fingerprint][round_index]
                    result = service.predict(fingerprint, kernel, timeout=10.0)
                    assert_same_prediction(
                        result, reference_predictors[fingerprint].predict(kernel)
                    )
            snapshot = service.snapshot()
        assert snapshot["mapping_cache_evictions"] > 0

    def test_unknown_fingerprint_raises_registry_error(self, serving_registry):
        registry = ArtifactRegistry(serving_registry, readonly=True)
        cache = HotMappingCache(registry, capacity=2)
        with pytest.raises(ArtifactNotFoundError):
            cache.get("f" * 64)


class TestNameResolution:
    def test_recharacterized_name_becomes_ambiguous_not_stale(
        self, tmp_path, small_skl_machine
    ):
        """A long-running node must notice registry changes: a name that
        now matches two artifacts is refused, never served stale."""
        from repro import build_skylake_like_machine, build_small_isa

        registry = ArtifactRegistry(tmp_path / "registry")
        registry.save(make_artifact(small_skl_machine))
        service = PredictionService(registry.root)
        fingerprint = service.resolve(small_skl_machine.name)
        assert fingerprint == machine_fingerprint(small_skl_machine)

        # A second characterization of the "same" machine name with a
        # different model lands in the shared registry.
        sibling = build_skylake_like_machine(isa=build_small_isa(12, seed=3))
        assert sibling.name == small_skl_machine.name
        registry.save(make_artifact(sibling))
        with pytest.raises(UnknownMachineError, match="ambiguous"):
            service.resolve(small_skl_machine.name)
        service.stop()

    def test_unknown_name_refused_from_cached_index(self, serving_registry):
        service = PredictionService(serving_registry)
        with pytest.raises(UnknownMachineError, match="no mapping artifact"):
            service.resolve("no-such-machine")
        # Repeat refusals are answered from the cached name index.
        with pytest.raises(UnknownMachineError):
            service.resolve("no-such-machine")
        service.stop()


class TestReadonlyRegistry:
    def test_save_refused(self, serving_registry, toy_machine):
        registry = ArtifactRegistry(serving_registry, readonly=True)
        with pytest.raises(RegistryReadOnlyError):
            registry.save(make_artifact(toy_machine))

    def test_stage_writes_refused(self, serving_registry):
        from repro.artifacts import StageCheckpoint

        registry = ArtifactRegistry(serving_registry, readonly=True)
        checkpoint = StageCheckpoint(
            stage="core",
            machine_fingerprint="a" * 64,
            input_hash="b" * 64,
            output_hash="c" * 64,
            payload={},
        )
        with pytest.raises(RegistryReadOnlyError):
            registry.save_stage(checkpoint)
        with pytest.raises(RegistryReadOnlyError):
            registry.delete_stage("a" * 64, "core")

    def test_service_opens_registry_readonly(self, serving_registry):
        service = PredictionService(serving_registry)
        assert service.registry.readonly
        service.stop()

    def test_reads_still_work(self, serving_registry, toy_machine):
        registry = ArtifactRegistry(serving_registry, readonly=True)
        artifact = registry.load_for_machine(toy_machine)
        assert artifact.machine_name == toy_machine.name


class TestLoweredBatch:
    def test_builder_matches_suite_matrix_bitwise(self, small_skl_machine):
        mapping = small_skl_machine.true_conjunctive(include_front_end=True)
        matrix = MappingMatrix(mapping)
        kernels = random_kernels(
            small_skl_machine.benchmarkable_instructions(), 40, seed=9
        )
        builder = LoweredBatchBuilder()
        for kernel in kernels:
            builder.append_kernel(kernel)
        assert len(builder) == len(kernels)
        lowered = matrix.predict_lowered(builder.take())
        batch = matrix.predict_batch(kernels)
        assert len(builder) == 0, "take() must reset the builder"
        for left, right in zip(lowered, batch):
            assert_same_prediction(left, right)

    def test_partial_coverage_matches(self, small_skl_machine):
        instructions = small_skl_machine.benchmarkable_instructions()
        mapping = small_skl_machine.true_conjunctive(include_front_end=True)
        matrix = MappingMatrix(mapping.restricted(instructions[: len(instructions) // 3]))
        kernels = random_kernels(instructions, 40, seed=10)
        builder = LoweredBatchBuilder()
        for kernel in kernels:
            builder.append_kernel(kernel)
        lowered = matrix.predict_lowered(builder.take())
        scalar = matrix.predict_batch(kernels)
        assert any(p.ipc is None for p in scalar)
        for left, right in zip(lowered, scalar):
            assert_same_prediction(left, right)

    def test_empty_batch(self, toy_machine):
        matrix = MappingMatrix(toy_machine.true_conjunctive())
        assert matrix.predict_lowered(LoweredBatchBuilder().take()) == []

    def test_interning_is_stable(self, toy_machine):
        instruction = toy_machine.benchmarkable_instructions()[0]
        assert instruction_id(instruction) == instruction_id(instruction)

    def test_ids_interned_after_lut_build_are_masked_without_rebuild(
        self, toy_machine
    ):
        """Fresh never-seen mnemonics (e.g. adversarial frontend input)
        must degrade to 'unsupported', not rebuild or break the table."""
        from repro.isa.instruction import Extension, Instruction, InstructionKind

        matrix = MappingMatrix(toy_machine.true_conjunctive(include_front_end=True))
        known = toy_machine.benchmarkable_instructions()[0]
        warm = LoweredBatchBuilder()
        warm.append_kernel(Microkernel.single(known, 2.0))
        matrix.predict_lowered(warm.take())  # builds the interned LUT

        fresh = Instruction(
            "NEVER_SEEN_BEFORE_XYZ", InstructionKind.INT_ALU, Extension.BASE
        )
        kernels = [
            Microkernel({known: 2.0, fresh: 1.0}),
            Microkernel.single(fresh, 3.0),
        ]
        builder = LoweredBatchBuilder()
        for kernel in kernels:
            builder.append_kernel(kernel)
        lowered = matrix.predict_lowered(builder.take())
        reference = matrix.predict_batch(kernels)
        for left, right in zip(lowered, reference):
            assert_same_prediction(left, right)
        assert lowered[1].ipc is None


class TestStdioFrontend:
    def _roundtrip(self, service, lines):
        import io

        out = io.StringIO()
        serve_stdio(service, io.StringIO("\n".join(lines) + "\n"), out)
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_predict_stats_shutdown(
        self, serving_registry, toy_machine, reference_predictors
    ):
        fingerprint = machine_fingerprint(toy_machine)
        instructions = toy_machine.benchmarkable_instructions()
        block = {instructions[0].name: 2.0, instructions[1].name: 1.0}
        with PredictionService(serving_registry) as service:
            responses = self._roundtrip(
                service,
                [
                    json.dumps(
                        {"id": 1, "machine": toy_machine.name, "blocks": [block]}
                    ),
                    json.dumps({"id": 2, "op": "stats"}),
                    json.dumps({"id": 3, "op": "shutdown"}),
                ],
            )
        predict, stats, stopping = responses
        assert predict["ok"] and predict["fingerprint"] == fingerprint
        kernel = Microkernel(
            {instructions[0]: 2.0, instructions[1]: 1.0}
        )
        expected = reference_predictors[fingerprint].predict(kernel)
        assert bits(predict["predictions"][0]["ipc"]) == bits(expected.ipc)
        assert stats["ok"] and stats["stats"]["requests_completed"] == 1
        assert stopping["ok"] and stopping["stopping"]

    def test_error_envelopes_are_typed(self, serving_registry):
        with PredictionService(serving_registry) as service:
            responses = self._roundtrip(
                service,
                [
                    "this is not json",
                    json.dumps({"id": 5, "machine": "no-such", "blocks": [{"A": 1}]}),
                    json.dumps({"id": 6, "blocks": [{"A": 1}]}),
                    json.dumps({"id": 7, "op": "nonsense"}),
                    json.dumps({"id": 8, "op": "shutdown"}),
                ],
            )
        assert not responses[0]["ok"]
        assert responses[0]["error"]["type"] == "JSONDecodeError"
        assert not responses[1]["ok"]
        assert responses[1]["error"]["type"] == "UnknownMachineError"
        assert not responses[2]["ok"]
        assert responses[2]["error"]["type"] == "InvalidRequestError"
        assert not responses[3]["ok"]
        assert responses[3]["error"]["type"] == "InvalidRequestError"

    @pytest.mark.parametrize(
        "literal",
        [
            "NaN",
            "Infinity",
            "-Infinity",
            "1e309",
            "true",
            pytest.param("1" + "0" * 400, id="401-digit-integer"),
        ],
    )
    def test_non_finite_multiplicity_refused(
        self, serving_registry, toy_machine, literal
    ):
        # json.loads accepts these literals (1e309 overflows to inf, true
        # is a bool, a 401-digit integer does not fit a float); the JSON
        # wire must refuse them as the binary wire does, not drop the
        # entry, count true as 1 or answer with a non-JSON NaN.
        first, second = toy_machine.benchmarkable_instructions()[:2]
        line = (
            f'{{"id": 1, "machine": "{toy_machine.name}", '
            f'"blocks": [{{"{first.name}": 1.0, "{second.name}": {literal}}}]}}'
        )
        with PredictionService(serving_registry) as service:
            (response,) = self._roundtrip(service, [line])
        assert not response["ok"]
        assert response["error"]["type"] == "InvalidRequestError"

    def test_unknown_mnemonic_degrades_like_paper_protocol(
        self, serving_registry, toy_machine
    ):
        instructions = toy_machine.benchmarkable_instructions()
        with PredictionService(serving_registry) as service:
            responses = self._roundtrip(
                service,
                [
                    json.dumps(
                        {
                            "id": 1,
                            "machine": toy_machine.name,
                            "blocks": [
                                {"TOTALLY_UNKNOWN": 1.0},
                                {instructions[0].name: 1.0, "ALSO_UNKNOWN": 1.0},
                            ],
                        }
                    ),
                    json.dumps({"op": "shutdown"}),
                ],
            )
        predictions = responses[0]["predictions"]
        assert predictions[0]["ipc"] is None
        assert predictions[0]["supported_fraction"] == 0.0
        assert predictions[1]["ipc"] is not None
        assert 0.0 < predictions[1]["supported_fraction"] < 1.0

    def test_garbage_mnemonics_do_not_grow_the_intern_table(
        self, serving_registry, toy_machine
    ):
        """Client-controlled strings must never leak into the global
        instruction intern table (a long-running node stays bounded)."""
        from repro.predictors.batch import interned_instruction_count

        with PredictionService(serving_registry) as service:
            self._roundtrip(
                service,
                [
                    json.dumps(
                        {
                            "id": 1,
                            "machine": toy_machine.name,
                            "blocks": [{f"GARBAGE_{i}": 1.0} for i in range(50)],
                        }
                    ),
                ],
            )
            before = interned_instruction_count()
            self._roundtrip(
                service,
                [
                    json.dumps(
                        {
                            "id": 2,
                            "machine": toy_machine.name,
                            "blocks": [
                                {f"OTHER_GARBAGE_{i}": 1.0} for i in range(50)
                            ],
                        }
                    ),
                ],
            )
            assert interned_instruction_count() == before


class TestTcpFrontend:
    def test_concurrent_clients_bitwise_and_clean_shutdown(
        self,
        serving_registry,
        toy_machine,
        small_skl_machine,
        reference_predictors,
    ):
        machines = {
            toy_machine.name: toy_machine,
            small_skl_machine.name: small_skl_machine,
        }
        service = PredictionService(serving_registry).start()
        server = LineProtocolServer(service, port=0)
        host, port = server.address
        server_thread = threading.Thread(target=server.serve_forever, daemon=True)
        server_thread.start()
        try:
            errors = []

            def client(index):
                try:
                    rng = random.Random(index)
                    with ServingClient(host, port) as link:
                        for step in range(10):
                            name = rng.choice(sorted(machines))
                            machine = machines[name]
                            kernel = random_kernels(
                                machine.benchmarkable_instructions(),
                                1,
                                seed=rng.randrange(1 << 30),
                            )[0]
                            blocks = [
                                {inst.name: count for inst, count in kernel.items()}
                            ]
                            response = link.predict_blocks(
                                blocks, machine=name, request_id=step
                            )
                            assert response["ok"], response
                            fingerprint = response["fingerprint"]
                            expected = reference_predictors[fingerprint].predict(
                                kernel
                            )
                            got = response["predictions"][0]
                            if expected.ipc is None:
                                assert got["ipc"] is None
                            else:
                                assert bits(got["ipc"]) == bits(expected.ipc)
                            assert bits(got["supported_fraction"]) == bits(
                                expected.supported_fraction
                            )
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append((index, error))

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors

            with ServingClient(host, port) as link:
                stats = link.stats()
                assert stats["ok"]
                assert stats["stats"]["requests_completed"] == 40
                reply = link.shutdown()
                assert reply["stopping"]
            server_thread.join(timeout=10.0)
            assert not server_thread.is_alive(), "server loop must stop cleanly"
        finally:
            server.server_close()
            service.stop()
