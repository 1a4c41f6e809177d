"""FleetRunner: many machines, one registry, any worker count."""

from __future__ import annotations

import dataclasses
import os
import warnings

import pytest

from repro.artifacts import ArtifactRegistry
from repro.measure.fingerprint import machine_fingerprint
from repro.palmed import PalmedConfig
from repro.pipeline import CoreMappingStage, FleetMachine, FleetRunner


def fleet_config() -> PalmedConfig:
    """Small caps keep every LP solve optimal (never time-limited)."""
    return dataclasses.replace(
        PalmedConfig().for_fast_tests(),
        n_basic_cap=6,
        max_resources=7,
        lp1_time_limit=60.0,
    )


SPECS = [
    FleetMachine("toy"),
    FleetMachine("skl", isa_size=12, seed=2),
]


def fallback_warnings(caught):
    return [
        warning
        for warning in caught
        if "parallel execution unavailable" in str(warning.message)
    ]


def deterministic(outcomes):
    return [outcome.stats.deterministic_dict() for outcome in outcomes]


@pytest.fixture(scope="module")
def sequential_outcomes(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-seq")
    runner = FleetRunner(str(root), fleet_config(), workers=0)
    return runner.characterize(SPECS), root


class TestFleetRunner:
    def test_outcomes_in_input_order(self, sequential_outcomes):
        outcomes, _ = sequential_outcomes
        assert [outcome.spec.machine for outcome in outcomes] == ["toy", "skl"]
        assert outcomes[0].machine_name == "toy-skl-p016"

    def test_artifacts_and_checkpoints_saved(self, sequential_outcomes):
        outcomes, root = sequential_outcomes
        registry = ArtifactRegistry(root)
        for outcome in outcomes:
            artifact = registry.load(outcome.machine_fingerprint)
            assert artifact.machine_name == outcome.machine_name
            assert (
                artifact.stats.deterministic_dict()
                == outcome.stats.deterministic_dict()
            )
        assert len(registry.entries()) == 2

    @pytest.mark.parametrize("workers", [2, 8])
    def test_parallel_fleet_matches_sequential(
        self, sequential_outcomes, tmp_path, workers
    ):
        outcomes, root = sequential_outcomes
        runner = FleetRunner(
            str(tmp_path / "fleet-par"), fleet_config(), workers=workers
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no in-process fallback
            parallel = runner.characterize(SPECS)
        assert len(parallel) == len(outcomes)
        sequential_registry = ArtifactRegistry(root)
        parallel_registry = ArtifactRegistry(tmp_path / "fleet-par")
        for seq, par in zip(outcomes, parallel):
            assert par.machine_fingerprint == seq.machine_fingerprint
            assert par.stats.deterministic_dict() == seq.stats.deterministic_dict()
            assert (
                parallel_registry.load(par.machine_fingerprint).mapping.to_dict()
                == sequential_registry.load(seq.machine_fingerprint).mapping.to_dict()
            )

    def test_machine_oserror_propagates_with_its_type_and_no_fallback(
        self, tmp_path
    ):
        # A registry root that is a regular file fails inside each
        # machine's own run; that OSError is the machine's, not the pool's.
        not_a_directory = tmp_path / "registry"
        not_a_directory.write_text("a regular file")
        raised = {}
        for workers in (0, 2):
            runner = FleetRunner(str(not_a_directory), fleet_config(), workers)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(OSError) as error:
                    runner.characterize(SPECS)
            assert fallback_warnings(caught) == []
            raised[workers] = type(error.value)
        assert raised[2] is raised[0]

    def test_pool_that_cannot_start_falls_back_in_process(
        self, sequential_outcomes, tmp_path, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise OSError("cannot start worker processes")

        monkeypatch.setattr("repro.pipeline.fleet.ProcessPoolExecutor", no_pool)
        outcomes, _ = sequential_outcomes
        runner = FleetRunner(str(tmp_path / "fleet"), fleet_config(), workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fallback = runner.characterize(SPECS)
        assert len(fallback_warnings(caught)) == 1
        assert deterministic(fallback) == deterministic(outcomes)

    def test_worker_death_mid_machine_falls_back_in_process(
        self, sequential_outcomes, tmp_path, monkeypatch
    ):
        # Forked workers inherit the patch: a worker dies once its machine
        # reaches the core stage, after the first two were checkpointed.
        parent = os.getpid()
        core_run = CoreMappingStage.run

        def die_in_a_worker(self, context, inputs):
            if os.getpid() != parent:
                os._exit(1)
            return core_run(self, context, inputs)

        monkeypatch.setattr(CoreMappingStage, "run", die_in_a_worker)
        outcomes, _ = sequential_outcomes
        runner = FleetRunner(str(tmp_path / "fleet"), fleet_config(), workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fallback = runner.characterize(SPECS)
        assert len(fallback_warnings(caught)) == 1
        assert deterministic(fallback) == deterministic(outcomes)
        # The machine whose worker died resumes from that worker's
        # checkpoints.
        assert any(outcome.checkpoint_hits["selection"] for outcome in fallback)

    def test_empty_fleet_and_negative_workers(self, tmp_path):
        for workers in (0, 2):
            runner = FleetRunner(str(tmp_path), fleet_config(), workers=workers)
            assert runner.characterize([]) == []
        with pytest.raises(ValueError):
            FleetRunner(str(tmp_path), fleet_config(), workers=-1)

    def test_resubmitted_fleet_resumes_from_checkpoints(self, sequential_outcomes):
        outcomes, root = sequential_outcomes
        rerun = FleetRunner(str(root), fleet_config(), workers=0).characterize(SPECS)
        for cold, warm in zip(outcomes, rerun):
            assert warm.num_checkpoint_hits == len(warm.checkpoint_hits)
            assert warm.stats.deterministic_dict() == cold.stats.deterministic_dict()

    def test_no_resume_reruns_everything(self, sequential_outcomes):
        outcomes, root = sequential_outcomes
        rerun = FleetRunner(
            str(root), fleet_config(), workers=0, resume=False
        ).characterize(SPECS)
        for cold, warm in zip(outcomes, rerun):
            assert warm.num_checkpoint_hits == 0
            assert warm.stats.deterministic_dict() == cold.stats.deterministic_dict()

    def test_fingerprints_match_machine_content(self, sequential_outcomes):
        from repro import build_machine

        outcomes, _ = sequential_outcomes
        toy = build_machine("toy")
        assert outcomes[0].machine_fingerprint == machine_fingerprint(toy)

    def test_format_table_lists_every_machine(self, sequential_outcomes):
        outcomes, _ = sequential_outcomes
        table = FleetRunner.format_table(outcomes)
        assert "toy-skl-p016" in table
        assert "ckpt hits" in table
        assert len(table.splitlines()) == 1 + len(outcomes)

    def test_display_name_defaults(self):
        assert FleetMachine("skl", isa_size=24).display_name == "skl/isa24/s0"
        assert FleetMachine("toy", label="lab-42").display_name == "lab-42"
