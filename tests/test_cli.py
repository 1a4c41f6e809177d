"""Tests for the ``python -m repro`` command-line entry point."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import build_command_parser, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.machine == "toy"
        assert not any(name.startswith("lp_") for name in vars(args))
        assert args.cache is None
        assert args.json is None
        assert args.artifacts is None

    def test_unknown_machine_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--machine", "pentium"])
        assert "invalid choice" in capsys.readouterr().err

    def test_subcommand_defaults(self):
        args = build_command_parser().parse_args(
            ["predict", "--artifacts", "arts"]
        )
        assert args.command == "predict"
        assert args.suite == "spec"
        assert args.blocks == 200
        assert args.limit == 10

    def test_characterize_requires_artifacts(self, capsys):
        with pytest.raises(SystemExit):
            build_command_parser().parse_args(["characterize"])
        assert "--artifacts" in capsys.readouterr().err

    def test_serve_defaults(self):
        args = build_command_parser().parse_args(["serve", "--artifacts", "arts"])
        assert args.command == "serve"
        assert args.port == 0
        assert not args.stdio
        assert args.max_batch == 512
        assert args.max_pending == 4096

    def test_artifacts_defaults(self):
        args = build_command_parser().parse_args(["artifacts", "--artifacts", "arts"])
        assert args.command == "artifacts"
        assert args.fingerprint is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--machines", "toy", "--workers", "-1", "--artifacts", "DIR"],
            ["fleet", "--machines", "skl", "--isa-size", "0", "--artifacts", "DIR"],
            ["characterize", "--machine", "skl", "--isa-size", "0",
             "--artifacts", "DIR"],
            ["predict", "--blocks", "0", "--artifacts", "DIR"],
            ["evaluate", "--blocks", "0", "--artifacts", "DIR"],
        ],
        ids=["workers", "fleet-isa-size", "isa-size", "predict-blocks",
             "evaluate-blocks"],
    )
    def test_out_of_range_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_command_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be at least" in err

    @pytest.mark.parametrize(
        "flag", [["--lp-parallelism", "2"], ["--lp-chunk-size", "2"],
                 ["--lp-warm-start"], ["--no-lp-warm-start"]],
        ids=["lp-parallelism", "lp-chunk-size", "lp-warm-start", "no-lp-warm-start"],
    )
    def test_lpaux_fan_out_flags_refused(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_command_parser().parse_args(
                ["characterize", *flag, "--artifacts", "DIR"]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["characterize", "--parallelism", "2", "--artifacts", "DIR"],
            ["evaluate", "--workers", "2", "--artifacts", "DIR"],
        ],
        ids=["characterize-parallelism", "evaluate-workers"],
    )
    def test_measurement_lane_flags_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_command_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_main_importable_from_cli_package(self):
        """The CLI split keeps the legacy import surface intact."""
        from repro.cli import build_command_parser as from_cli
        from repro.cli import build_parser as legacy
        from repro.cli import main as cli_main

        assert from_cli is build_command_parser
        assert legacy is build_parser
        assert cli_main is main


class TestMain:
    def test_toy_run_prints_table_and_writes_json(self, tmp_path, capsys):
        json_path = tmp_path / "stats.json"
        exit_code = main(["--machine", "toy", "--fast", "--json", str(json_path)])
        assert exit_code == 0

        output = capsys.readouterr().out
        assert "Benchmarking time (s)" in output
        assert "Instructions mapped" in output

        payload = json.loads(json_path.read_text())
        assert payload["stats"]["machine_name"]
        assert payload["stats"]["num_instructions_mapped"] > 0
        assert payload["stats"]["lp_solves"] > 0
        assert not any(key.startswith("lp_") for key in payload["config"])
        assert payload["mapping"]["resources"]

    def test_show_mapping_and_json_stdout(self, capsys):
        exit_code = main(["--machine", "toy", "--fast", "--json", "-", "--show-mapping"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert '"stats"' in output


class TestArtifactWorkflow:
    """characterize -> predict/evaluate round trips through the registry."""

    @pytest.fixture(scope="class")
    def characterized(self, tmp_path_factory):
        registry_dir = tmp_path_factory.mktemp("artifacts")
        exit_code = main(
            ["characterize", "--machine", "toy", "--fast", "--artifacts", str(registry_dir)]
        )
        assert exit_code == 0
        return registry_dir

    def test_characterize_saves_artifact(self, characterized, capsys):
        artifacts = list(characterized.glob("mapping-*.json"))
        assert len(artifacts) == 1
        payload = json.loads(artifacts[0].read_text())
        assert payload["machine_name"]
        assert payload["mapping"]["resources"]
        assert payload["stats"]["num_instructions_mapped"] > 0

    def test_predict_serves_from_artifact(self, characterized, tmp_path, capsys):
        json_path = tmp_path / "predictions.json"
        exit_code = main(
            [
                "predict",
                "--machine", "toy",
                "--artifacts", str(characterized),
                "--suite", "spec",
                "--blocks", "25",
                "--limit", "3",
                "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Served 25 blocks" in output

        payload = json.loads(json_path.read_text())
        assert len(payload["predictions"]) == 25
        assert all(entry["ipc"] is not None for entry in payload["predictions"])

    def test_predict_without_artifact_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(
            ["predict", "--machine", "toy", "--artifacts", str(tmp_path / "none")]
        )
        assert exit_code == 1
        assert "characterize" in capsys.readouterr().err

    def test_evaluate_reproduces_metrics_in_fresh_process(
        self, characterized, tmp_path
    ):
        """The acceptance round trip: ``evaluate`` in a *fresh process*
        reproduces the Fig. 4b metrics computed in-process from the saved
        artifact, with no inference re-run."""
        json_path = tmp_path / "metrics.json"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "evaluate",
                "--machine", "toy",
                "--artifacts", str(characterized),
                "--suite", "spec",
                "--blocks", "40",
                "--json", str(json_path),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "no inference re-run" in completed.stdout
        payload = json.loads(json_path.read_text())

        # Reference: the same evaluation computed in this process, straight
        # from the saved artifact.
        from repro import PortModelBackend, build_machine
        from repro.artifacts import ArtifactRegistry
        from repro.evaluation import evaluate_predictors
        from repro.predictors import PalmedPredictor
        from repro.workloads import generate_spec_like_suite

        machine = build_machine("toy")
        artifact = ArtifactRegistry(characterized).load_for_machine(machine)
        suite = generate_spec_like_suite(machine.instructions, n_blocks=40, seed=0)
        evaluation = evaluate_predictors(
            PortModelBackend(machine), suite, [PalmedPredictor(artifact.mapping)],
            machine_name=machine.name,
        )
        expected = evaluation.metrics("Palmed")
        got = payload["metrics"]["Palmed"]
        assert got["coverage_percent"] == 100.0 * expected.coverage
        assert got["rms_error_percent"] == 100.0 * expected.rms_error
        assert got["kendall_tau"] == expected.kendall_tau


class TestArtifactsSubcommand:
    """``python -m repro artifacts``: the operator inventory view."""

    @pytest.fixture(scope="class")
    def characterized(self, tmp_path_factory):
        registry_dir = tmp_path_factory.mktemp("inventory")
        exit_code = main(
            ["characterize", "--machine", "toy", "--fast",
             "--artifacts", str(registry_dir)]
        )
        assert exit_code == 0
        return registry_dir

    def test_lists_artifacts_and_checkpoints(self, characterized, tmp_path, capsys):
        json_path = tmp_path / "inventory.json"
        exit_code = main(
            ["artifacts", "--artifacts", str(characterized), "--json", str(json_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "1 mapping artifact(s)" in output
        assert "fingerprint" in output
        assert "checkpoints for pipeline fingerprint" in output

        payload = json.loads(json_path.read_text())
        assert len(payload["artifacts"]) == 1
        record = payload["artifacts"][0]
        assert record["machine"]
        assert len(record["fingerprint"]) == 64
        assert record["size_bytes"] > 0
        assert record["instructions_mapped"] > 0
        stages = payload["stage_checkpoints"][0]["checkpoints"]
        assert {s["stage"] for s in stages} == {
            "quadratic", "selection", "core", "complete", "finalize"
        }
        assert all(s["size_bytes"] > 0 for s in stages)

    def test_fingerprint_prefix_filter(self, characterized, capsys):
        payload_fingerprint = json.loads(
            next(characterized.glob("mapping-*.json")).read_text()
        )["machine_fingerprint"]
        exit_code = main(
            ["artifacts", "--artifacts", str(characterized),
             "--fingerprint", payload_fingerprint[:8]]
        )
        assert exit_code == 0
        assert payload_fingerprint in capsys.readouterr().out

    def test_unknown_prefix_fails_cleanly(self, characterized, capsys):
        exit_code = main(
            ["artifacts", "--artifacts", str(characterized),
             "--fingerprint", "ffffffffffff"]
        )
        assert exit_code == 1
        assert "no artifact" in capsys.readouterr().err

    def test_missing_registry_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(
            ["artifacts", "--artifacts", str(tmp_path / "nowhere")]
        )
        assert exit_code == 1
        assert "no registry" in capsys.readouterr().err


class TestServeSubcommand:
    """``python -m repro serve --stdio`` in a fresh process."""

    def test_stdio_round_trip_fresh_process(self, tmp_path):
        registry_dir = tmp_path / "registry"
        exit_code = main(
            ["characterize", "--machine", "toy", "--fast",
             "--artifacts", str(registry_dir)]
        )
        assert exit_code == 0

        from repro import build_machine
        from repro.artifacts import ArtifactRegistry
        from repro.predictors import PalmedPredictor
        from repro import Microkernel

        machine = build_machine("toy")
        artifact = ArtifactRegistry(registry_dir).load_for_machine(machine)
        instructions = machine.benchmarkable_instructions()
        block = {instructions[0].name: 2.0, instructions[1].name: 1.0}
        expected = PalmedPredictor(artifact.mapping).predict(
            Microkernel({instructions[0]: 2.0, instructions[1]: 1.0})
        )

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        requests = "\n".join(
            [
                json.dumps({"id": 1, "machine": machine.name, "blocks": [block]}),
                json.dumps({"id": 2, "op": "shutdown"}),
            ]
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--artifacts", str(registry_dir), "--stdio"],
            input=requests + "\n",
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        lines = [json.loads(line) for line in completed.stdout.splitlines()]
        assert lines[0]["ok"]
        assert lines[0]["predictions"][0]["ipc"] == expected.ipc
        assert lines[1]["stopping"]
        assert "Serving statistics" in completed.stderr

    def test_empty_registry_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(
            ["serve", "--artifacts", str(tmp_path / "empty"), "--stdio"]
        )
        assert exit_code == 1
        assert "characterize" in capsys.readouterr().err


class TestResumeWorkflow:
    """characterize --resume / --force-stage / --explain over the stage graph."""

    @pytest.fixture(scope="class")
    def registry_dir(self, tmp_path_factory):
        registry = tmp_path_factory.mktemp("resume-artifacts")
        exit_code = main(
            ["characterize", "--machine", "toy", "--fast",
             "--artifacts", str(registry)]
        )
        assert exit_code == 0
        return registry

    def test_checkpoints_written(self, registry_dir):
        stage_files = list(registry_dir.glob("stages/*/*.json"))
        stages = {path.name.split("-")[0] for path in stage_files}
        assert stages == {"quadratic", "selection", "core", "complete", "finalize"}

    def test_resume_hits_every_stage(self, registry_dir, capsys):
        json_path = registry_dir / "warm-stats.json"
        exit_code = main(
            ["characterize", "--machine", "toy", "--fast",
             "--artifacts", str(registry_dir), "--resume", "--explain",
             "--json", str(json_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "5/5 stages served from checkpoints" in output
        assert "checkpoint" in output
        stats = json.loads(json_path.read_text())["stats"]
        assert all(stats["stage_checkpoint_hits"].values())
        assert set(stats["stage_wall_clock"]) == {
            "quadratic", "selection", "core", "complete", "finalize"
        }

    def test_force_stage_reruns_named_stage_only(self, registry_dir, capsys):
        exit_code = main(
            ["characterize", "--machine", "toy", "--fast",
             "--artifacts", str(registry_dir), "--resume",
             "--force-stage", "complete", "--explain"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "4/5 stages served from checkpoints" in output

    def test_resume_without_artifacts_rejected(self, capsys):
        exit_code = main(["--machine", "toy", "--fast", "--resume"])
        assert exit_code == 2
        assert "--artifacts" in capsys.readouterr().err

    def test_evaluate_falls_back_to_finalize_checkpoint(self, registry_dir, capsys):
        # Remove the exported mapping artifact but keep the stage
        # checkpoints: evaluate must serve from the finalize checkpoint.
        for artifact in registry_dir.glob("mapping-*.json"):
            artifact.unlink()
        exit_code = main(
            ["evaluate", "--machine", "toy", "--artifacts", str(registry_dir),
             "--suite", "spec", "--blocks", "20"]
        )
        assert exit_code == 0
        assert "finalize-stage checkpoint" in capsys.readouterr().out

    def test_evaluate_without_anything_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(
            ["evaluate", "--machine", "toy", "--artifacts", str(tmp_path / "none")]
        )
        assert exit_code == 1
        assert "characterize" in capsys.readouterr().err


class TestFleetCommand:
    def test_fleet_two_machine_smoke(self, tmp_path, capsys):
        json_path = tmp_path / "fleet.json"
        exit_code = main(
            ["fleet", "--machines", "toy,skl", "--isa-size", "8", "--seed", "2",
             "--fast", "--workers", "2", "--artifacts", str(tmp_path / "registry"),
             "--json", str(json_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Characterized 2 machine(s)" in output
        assert "toy-skl-p016" in output
        payload = json.loads(json_path.read_text())
        assert len(payload["machines"]) == 2
        assert all(m["stats"]["num_instructions_mapped"] > 0 for m in payload["machines"])
        # Re-submitting the same fleet resumes every stage from checkpoints.
        exit_code = main(
            ["fleet", "--machines", "toy,skl", "--isa-size", "8", "--seed", "2",
             "--fast", "--artifacts", str(tmp_path / "registry"),
             "--json", str(json_path)]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        for machine in payload["machines"]:
            assert all(machine["checkpoint_hits"].values())

    def test_fleet_unknown_machine_rejected(self, tmp_path, capsys):
        exit_code = main(
            ["fleet", "--machines", "toy,pentium", "--artifacts", str(tmp_path)]
        )
        assert exit_code == 2
        assert "unknown machine" in capsys.readouterr().err
