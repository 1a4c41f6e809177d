"""The benchmark's own tests: smoke runs of every workload, and the gates.

Run from the checkout root::

    python -m pytest perfbench/selftest.py -q

(The file is deliberately not named ``test_*.py``: the repository's test
suite does not collect it.)  Each smoke run goes through the same code
path as a real run, correctness gate included, on smaller inputs.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run  # noqa: E402

common.use_repo_sources()

import characterize  # noqa: E402
import serve  # noqa: E402


@pytest.fixture
def smoke(monkeypatch):
    """Smoke-sized inputs: a small characterization, few latency samples."""
    monkeypatch.setattr(common, "MIN_LATENCY_SAMPLES", 100)
    monkeypatch.setattr(characterize, "CONFIG", dict(characterize.CONFIG, n_basic_cap=4))
    monkeypatch.setattr(characterize, "SUITE_BLOCKS", 200)
    monkeypatch.setattr(characterize, "BURST_REQUESTS", 100)
    # A smoke-sized run is short enough for fixed costs outside the stages
    # (the telemetry session) to show.
    monkeypatch.setattr(characterize, "ATTRIBUTION_TOLERANCE", 0.5)
    monkeypatch.setattr(serve, "SETUP_REPEATS", 2)


def result_of(name: str, trace: bool, seconds: float = 1.0) -> dict:
    report = run.run_workload(name, seed=3, seconds=seconds, trace=trace)
    return run.result_line(run.load_spec(), report, trace)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(smoke, name):
    line = result_of(name, trace=False)
    declared = [metric["name"] for metric in run.load_spec()["end_to_end"]]
    assert list(line["metrics"]) == declared
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in line["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_traced_characterize_attributes_its_stages(smoke):
    line = result_of("characterize", trace=True)
    values = {name: metric["value"] for name, metric in line["metrics"].items()}
    assert values["solvers.limit_solves"] == 0
    assert values["solvers.backend_solves"] > 0
    assert values["pipeline.core_share"] > 0
    assert abs(values["pipeline.attributed_share"] - 1.0) < characterize.ATTRIBUTION_TOLERANCE
    assert values["serving.batches"] == 0  # bypassed


@pytest.mark.parametrize("name", ["serve-binary", "serve-cluster-json"])
def test_traced_serve_reads_node_stats(smoke, name):
    line = result_of(name, trace=True, seconds=2.0)
    values = {name: metric["value"] for name, metric in line["metrics"].items()}
    assert values["serving.batches"] > 0
    assert values["serving.requests_refused"] == 0
    assert values["solvers.backend_solves"] == 0  # bypassed
    if name == "serve-binary":
        assert values["serving.lowering_hits"] + values["serving.lowering_misses"] == 0
    else:
        assert values["serving.lowering_hits"] > 0 and values["serving.lowering_misses"] > 0
        assert values["cluster.forward_share.n0"] + values["cluster.forward_share.n1"] == pytest.approx(1.0)


def test_corrupted_reference_answer_fails_the_serve_gate(smoke, monkeypatch):
    from repro.predictors import Prediction

    honest = serve.MachineInputs.reference

    def corrupted(self, index):
        answer = honest(self, index)
        return Prediction(
            ipc=math.nextafter(answer.ipc, math.inf),
            supported_fraction=answer.supported_fraction,
        )

    monkeypatch.setattr(serve.MachineInputs, "reference", corrupted)
    with pytest.raises(common.CorrectnessError):
        run.run_workload("serve-binary", seed=3, seconds=1.0, trace=False)


def test_forced_time_limited_solve_fails_the_characterize_gate(smoke, monkeypatch):
    # The real problem size, with LP1 cut off well before optimality (its
    # proof takes seconds): the solve returns a LIMIT incumbent.
    full_size = dict(characterize.CONFIG, n_basic_cap=6, lp1_time_limit=1.0)
    monkeypatch.setattr(characterize, "CONFIG", full_size)
    with pytest.raises(common.CorrectnessError, match="limit"):
        run.run_workload("characterize", seed=3, seconds=1.0, trace=False)


def test_mapping_digest_change_fails_the_characterize_gate(smoke):
    _, result = characterize.characterize_once()
    characterize.check_characterization(result, [])
    with pytest.raises(common.CorrectnessError, match="digest"):
        characterize.check_characterization(result, ["0" * 64])


def test_race_raises_a_child_gate_failure_and_reaps_every_child():
    import multiprocessing

    def task(index):
        if index == 1:
            raise common.CorrectnessError("child 1 saw a wrong answer")
        return index

    with pytest.raises(common.CorrectnessError, match="child 1"):
        common.race(task, 2)
    assert common.race(lambda index: 10 * index, 2) == [0, 10]
    assert multiprocessing.active_children() == []


def test_gate_failure_exits_nonzero_without_a_result(monkeypatch, capsys):
    def wrong(*args):
        raise common.CorrectnessError("served answer differs")

    monkeypatch.setattr(run, "run_workload", wrong)
    status = run.main(["--workload", "serve-binary", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert status == 1
    assert "{" not in capsys.readouterr().out


def test_benchmark_alone_fails_without_printing_a_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable if part == "python3" else part for part in command]
        + ["--workload", "characterize", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
