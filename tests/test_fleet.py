"""FleetRunner: many machines, one registry, any worker count."""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.artifacts import ArtifactRegistry
from repro.measure.fingerprint import machine_fingerprint
from repro.palmed import PalmedConfig
from repro.pipeline import FleetMachine, FleetRunner


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

    def test_parallel_fleet_matches_sequential(self, sequential_outcomes, tmp_path):
        outcomes, root = sequential_outcomes
        runner = FleetRunner(str(tmp_path / "fleet-par"), fleet_config(), workers=2)
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
