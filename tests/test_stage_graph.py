"""Unit tests of the stage-graph machinery (repro.pipeline).

Covers the graph executor's validation and bookkeeping, the content-hash
invalidation contract (config fields a stage *reads* invalidate its
checkpoints, unrelated fields do not), and the checkpoint storage layer.
The end-to-end crash/resume bitwise guarantees live in
``tests/test_resume.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import PortModelBackend, build_toy_machine
from repro.artifacts import (
    ArtifactNotFoundError,
    ArtifactRegistry,
    FingerprintMismatchError,
    StageCheckpoint,
    payload_hash,
)
from repro.palmed import Palmed, PalmedConfig
from repro.palmed.benchmarks import BenchmarkRunner
from repro.pipeline import (
    PipelineInterrupted,
    Stage,
    StageContext,
    StageGraph,
    load_final_outcome,
    palmed_stages,
)


def fast_config(**overrides) -> PalmedConfig:
    config = PalmedConfig().for_fast_tests()
    return dataclasses.replace(config, **overrides) if overrides else config


@pytest.fixture()
def toy_context(toy_backend, toy_machine):
    return StageContext(
        runner=BenchmarkRunner(toy_backend, fast_config()),
        config=fast_config(),
        instructions=sorted(toy_machine.benchmarkable_instructions()),
        machine_name=toy_machine.name,
    )


class TestConfigHash:
    """The satellite contract: only declared fields key a stage's checkpoints."""

    def test_stable_across_instances(self):
        assert PalmedConfig().config_hash() == PalmedConfig().config_hash()

    def test_field_order_irrelevant(self):
        config = PalmedConfig()
        assert config.config_hash(["epsilon", "min_ipc"]) == config.config_hash(
            ["min_ipc", "epsilon"]
        )

    def test_unrelated_field_change_keeps_hash(self):
        """Fields outside the selection must not move the digest."""
        base = PalmedConfig()
        changed = dataclasses.replace(base, cache_path="/tmp/somewhere.json",
                                      telemetry="/tmp/somewhere.sqlite")
        fields = ["epsilon", "min_ipc", "m_repeat"]
        assert base.config_hash(fields) == changed.config_hash(fields)

    def test_selected_field_change_moves_hash(self):
        base = PalmedConfig()
        changed = dataclasses.replace(base, epsilon=0.07)
        fields = ["epsilon", "min_ipc"]
        assert base.config_hash(fields) != changed.config_hash(fields)

    def test_full_hash_sees_every_field(self):
        assert (
            PalmedConfig().config_hash()
            != dataclasses.replace(PalmedConfig(), l_repeat=5).config_hash()
        )

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown PalmedConfig fields"):
            PalmedConfig().config_hash(["not_a_field"])

    def test_every_declared_stage_field_exists(self):
        """Stages may only declare fields PalmedConfig actually has."""
        config = PalmedConfig()
        for stage in palmed_stages():
            config.config_hash(stage.config_fields)  # raises on a typo


class TestPayloadHash:
    def test_nondeterministic_section_excluded(self):
        base = {"value": 1.5, "_nondeterministic": {"wall": 0.123}}
        other = {"value": 1.5, "_nondeterministic": {"wall": 9.999}}
        assert payload_hash(base) == payload_hash(other)

    def test_semantic_change_moves_hash(self):
        assert payload_hash({"value": 1.5}) != payload_hash({"value": 1.6})


class TestGraphValidation:
    def test_duplicate_stage_rejected(self):
        stage = palmed_stages()[0]
        with pytest.raises(ValueError, match="duplicate"):
            StageGraph([stage, stage])

    def test_forward_dependency_rejected(self):
        stages = palmed_stages()
        with pytest.raises(ValueError, match="depends on"):
            StageGraph(stages[::-1])

    def test_unnamed_stage_rejected(self):
        with pytest.raises(ValueError, match="no name"):
            StageGraph([Stage()])

    def test_unknown_force_rejected(self, toy_context, tmp_path):
        graph = StageGraph(palmed_stages())
        with pytest.raises(ValueError, match="unknown stage"):
            graph.run(
                toy_context,
                registry=ArtifactRegistry(tmp_path),
                force=["benchmarking"],
            )

    def test_unknown_stop_after_rejected(self, toy_context):
        graph = StageGraph(palmed_stages())
        with pytest.raises(ValueError, match="stop_after"):
            graph.run(toy_context, stop_after="nope")

    def test_resume_without_registry_rejected(self, toy_backend, toy_machine):
        with pytest.raises(ValueError, match="registry"):
            Palmed(
                toy_backend,
                toy_machine.benchmarkable_instructions(),
                fast_config(),
                resume=True,
            )


class TestInvalidation:
    """Content-driven checkpoint invalidation, end to end."""

    @pytest.fixture(scope="class")
    def characterized(self, tmp_path_factory, toy_machine):
        registry_dir = tmp_path_factory.mktemp("stage-registry")
        registry = ArtifactRegistry(registry_dir)
        backend = PortModelBackend(toy_machine)
        palmed = Palmed(
            backend,
            toy_machine.benchmarkable_instructions(),
            fast_config(),
            registry=registry,
        )
        result = palmed.run()
        return registry, result

    def _hits(self, toy_machine, registry, config):
        backend = PortModelBackend(toy_machine)
        palmed = Palmed(
            backend,
            toy_machine.benchmarkable_instructions(),
            config,
            registry=registry,
            resume=True,
        )
        result = palmed.run()
        return result.stats.stage_checkpoint_hits, result

    def test_unrelated_config_change_hits_every_stage(
        self, characterized, toy_machine, tmp_path
    ):
        """cache/telemetry knobs are read by no stage: all five hit."""
        registry, _ = characterized
        hits, _ = self._hits(
            toy_machine,
            registry,
            fast_config(
                cache_path=str(tmp_path / "measurements.json"),
                telemetry=str(tmp_path / "telemetry.sqlite"),
            ),
        )
        assert hits == {name: True for name in hits}

    def test_selection_field_reruns_only_downstream(self, characterized, toy_machine):
        """cluster_tolerance is read from selection onward: quadratic hits."""
        registry, _ = characterized
        hits, _ = self._hits(
            toy_machine, registry, fast_config(cluster_tolerance=0.04)
        )
        assert hits["quadratic"] is True
        assert hits["selection"] is False

    def test_lpaux_field_keeps_upstream_checkpoints(self, characterized, toy_machine):
        """l_repeat is read only by the complete stage: everything before hits."""
        registry, _ = characterized
        hits, _ = self._hits(toy_machine, registry, fast_config(l_repeat=3))
        assert hits["quadratic"] and hits["selection"] and hits["core"]
        assert hits["complete"] is False

    def test_identical_rerun_after_selection_change_converges(
        self, characterized, toy_machine
    ):
        """A re-run stage reproducing its output revalidates downstream.

        cluster_tolerance=0.05 is the default written as a different float
        expression; with the *same* value the selection hash changes only
        if the field value changed — here we re-run selection via force and
        check downstream stages still hit because the output hash matched.
        """
        registry, cold = characterized
        backend = PortModelBackend(toy_machine)
        palmed = Palmed(
            backend,
            toy_machine.benchmarkable_instructions(),
            fast_config(),
            registry=registry,
            resume=True,
            force_stages=("selection",),
        )
        result = palmed.run()
        hits = result.stats.stage_checkpoint_hits
        assert hits["selection"] is False  # forced
        assert hits["core"] is True  # same selection output -> same hash
        assert result.mapping.to_json() == cold.mapping.to_json()

    def test_instruction_subset_change_invalidates(
        self, characterized, toy_machine, tmp_path
    ):
        """Subsets differing only in *non-benchmarkable* instructions must
        not share checkpoints: the quadratic payload would coincide, but
        ``num_instructions_total`` (part of the deterministic stats) would
        not — the instruction set is therefore part of every stage's hash."""
        import shutil

        from repro.isa.instruction import Extension, Instruction, InstructionKind

        registry, _ = characterized
        # Work on a copy: this run writes its own (7-instruction)
        # checkpoints, which must not shadow the shared class registry.
        copied = ArtifactRegistry(
            shutil.copytree(registry.root, tmp_path / "registry-subset")
        )
        unbenchmarkable = Instruction(
            "FAKE_JMP", InstructionKind.JUMP, Extension.BASE, 64
        )
        backend = PortModelBackend(toy_machine)
        palmed = Palmed(
            backend,
            list(toy_machine.benchmarkable_instructions()) + [unbenchmarkable],
            fast_config(),
            registry=copied,
            resume=True,
        )
        result = palmed.run()
        assert not any(result.stats.stage_checkpoint_hits.values())
        assert result.stats.num_instructions_total == 7

    def test_machine_change_invalidates_everything(self, characterized):
        registry, _ = characterized
        from repro import build_small_isa, build_skylake_like_machine

        machine = build_skylake_like_machine(isa=build_small_isa(12, seed=3))
        backend = PortModelBackend(machine)
        palmed = Palmed(
            backend,
            machine.benchmarkable_instructions(),
            fast_config(n_basic_cap=6, max_resources=7),
            registry=registry,
            resume=True,
        )
        result = palmed.run()
        hits = result.stats.stage_checkpoint_hits
        assert hits == {name: False for name in hits}

    def test_final_outcome_loadable_from_checkpoints(self, characterized, toy_machine):
        registry, cold = characterized
        from repro.measure import backend_fingerprint

        fingerprint = backend_fingerprint(PortModelBackend(toy_machine))
        final = load_final_outcome(registry, fingerprint)
        assert final is not None
        assert final.mapping.to_json() == cold.mapping.to_json()
        assert final.stats.deterministic_dict() == cold.stats.deterministic_dict()

    def test_final_outcome_missing_returns_none(self, tmp_path):
        assert load_final_outcome(ArtifactRegistry(tmp_path), "f" * 64) is None


class TestCheckpointStore:
    def _checkpoint(self) -> StageCheckpoint:
        payload = {"value": 1.25, "_nondeterministic": {"wall": 0.7}}
        return StageCheckpoint(
            stage="quadratic",
            machine_fingerprint="a" * 64,
            input_hash="b" * 64,
            output_hash=payload_hash(payload),
            payload=payload,
            record={
                "stage": "quadratic",
                "wall_time": 0.5,
                "num_benchmarks": 3,
                "num_benchmarks_measured": 2,
                "num_benchmarks_cached": 1,
            },
        )

    def test_roundtrip(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        checkpoint = self._checkpoint()
        registry.save_stage(checkpoint)
        assert registry.has_stage("a" * 64, "quadratic", "b" * 64)
        loaded = registry.load_stage("a" * 64, "quadratic", "b" * 64)
        assert loaded.payload == checkpoint.payload
        assert loaded.output_hash == checkpoint.output_hash
        assert loaded.record["num_benchmarks"] == 3

    def test_corrupted_payload_refused(self, tmp_path):
        """An edited payload no longer matches output_hash and is refused."""
        import json

        registry = ArtifactRegistry(tmp_path)
        path = registry.save_stage(self._checkpoint())
        envelope = json.loads(path.read_text())
        envelope["payload"]["value"] = 9.75  # bit-flip the semantic content
        path.write_text(json.dumps(envelope))
        with pytest.raises(FingerprintMismatchError, match="corrupted or edited"):
            registry.load_stage("a" * 64, "quadratic", "b" * 64)

    def test_nondeterministic_edit_tolerated(self, tmp_path):
        """Editing the _nondeterministic section does not trip verification."""
        import json

        registry = ArtifactRegistry(tmp_path)
        path = registry.save_stage(self._checkpoint())
        envelope = json.loads(path.read_text())
        envelope["payload"]["_nondeterministic"]["wall"] = 123.0
        path.write_text(json.dumps(envelope))
        loaded = registry.load_stage("a" * 64, "quadratic", "b" * 64)
        assert loaded.payload["_nondeterministic"]["wall"] == 123.0

    def test_missing_raises_not_found(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        with pytest.raises(ArtifactNotFoundError):
            registry.load_stage("a" * 64, "quadratic", "b" * 64)

    def test_tampered_identity_refused(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        checkpoint = self._checkpoint()
        path = registry.save_stage(checkpoint)
        # Misplace the file under another stage's identity.
        target = registry.stage_path("a" * 64, "core", "b" * 64)
        target.write_text(path.read_text())
        with pytest.raises(FingerprintMismatchError):
            registry.load_stage("a" * 64, "core", "b" * 64)

    def test_delete_stage(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        registry.save_stage(self._checkpoint())
        assert registry.delete_stage("a" * 64, "quadratic") == 1
        assert not registry.has_stage("a" * 64, "quadratic", "b" * 64)

    def test_stage_entries_sorted(self, tmp_path):
        registry = ArtifactRegistry(tmp_path)
        first = self._checkpoint()
        second = self._checkpoint()
        second.stage = "core"
        registry.save_stage(first)
        registry.save_stage(second)
        entries = registry.stage_entries("a" * 64)
        assert [entry.stage for entry in entries] == ["core", "quadratic"]


class TestStopAfter:
    def test_interrupt_saves_checkpoints_up_to_boundary(
        self, tmp_path, toy_machine
    ):
        registry = ArtifactRegistry(tmp_path)
        backend = PortModelBackend(toy_machine)
        palmed = Palmed(
            backend,
            toy_machine.benchmarkable_instructions(),
            fast_config(),
            registry=registry,
        )
        with pytest.raises(PipelineInterrupted):
            palmed.run(stop_after="selection")
        from repro.measure import backend_fingerprint

        fingerprint = backend_fingerprint(backend)
        stages_present = {cp.stage for cp in registry.stage_entries(fingerprint)}
        assert stages_present == {"quadratic", "selection"}
