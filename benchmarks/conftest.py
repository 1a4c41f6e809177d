"""Shared fixtures for the benchmark harness.

The benchmarks regenerate the paper's tables and figures on scaled-down
synthetic machines (a few dozen instructions instead of ~3000, minutes of
LP solving instead of hours).  The expensive artifacts — the PALMED runs on
the SKL-like and Zen1-like machines, the trained PMEvo baseline, the
benchmark suites — are built once per session and shared across benches.

Every bench writes its regenerated table to ``benchmarks/results/*.txt`` so
the artifacts survive the pytest-benchmark output capture.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import PortModelBackend, build_skylake_like_machine, build_small_isa, build_zen_like_machine
from repro.palmed import Palmed, PalmedConfig
from repro.predictors import (
    IacaLikePredictor,
    LlvmMcaPredictor,
    PMEvoConfig,
    PalmedPredictor,
    UopsInfoPredictor,
    train_pmevo,
)
from repro.workloads import generate_polybench_like_suite, generate_spec_like_suite

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Size of the synthetic ISA used by the benchmark harness.  Scaled down from
#: the paper's ~3000 x86 instructions so a full run stays in the minutes.
ISA_SIZE = 36


def bench_config() -> PalmedConfig:
    """The PALMED configuration used for every benchmark run."""
    return PalmedConfig(
        n_basic=None,
        n_basic_cap=12,
        max_resources=12,
        lp1_max_iterations=1,
        lp1_time_limit=20.0,
        lp2_mode="exact",
        milp_time_limit=45.0,
    )


def write_result(name: str, content: str) -> pathlib.Path:
    """Persist a regenerated table under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def bench_isa():
    return build_small_isa(ISA_SIZE, seed=0)


@pytest.fixture(scope="session")
def skl_machine(bench_isa):
    return build_skylake_like_machine(isa=bench_isa)


@pytest.fixture(scope="session")
def zen_machine(bench_isa):
    return build_zen_like_machine(isa=bench_isa)


@pytest.fixture(scope="session")
def skl_backend(skl_machine):
    return PortModelBackend(skl_machine)


@pytest.fixture(scope="session")
def zen_backend(zen_machine):
    return PortModelBackend(zen_machine)


@pytest.fixture(scope="session")
def skl_palmed(skl_machine, skl_backend):
    """The PALMED run on the SKL-like machine (shared by several benches)."""
    palmed = Palmed(skl_backend, skl_machine.benchmarkable_instructions(), bench_config())
    return palmed.run()


@pytest.fixture(scope="session")
def zen_palmed(zen_machine, zen_backend):
    """The PALMED run on the Zen1-like machine."""
    palmed = Palmed(zen_backend, zen_machine.benchmarkable_instructions(), bench_config())
    return palmed.run()


@pytest.fixture(scope="session")
def skl_pmevo(skl_machine, skl_backend):
    config = PMEvoConfig(num_ports=6, population_size=36, generations=30,
                         coverage_fraction=0.7, seed=0)
    return train_pmevo(skl_backend, skl_machine.benchmarkable_instructions(), config)


@pytest.fixture(scope="session")
def zen_pmevo(zen_machine, zen_backend):
    config = PMEvoConfig(num_ports=8, population_size=36, generations=30,
                         coverage_fraction=0.7, seed=0)
    return train_pmevo(zen_backend, zen_machine.benchmarkable_instructions(), config)


@pytest.fixture(scope="session")
def skl_predictors(skl_machine, skl_palmed, skl_pmevo):
    return [
        PalmedPredictor(skl_palmed),
        UopsInfoPredictor(skl_machine),
        skl_pmevo,
        IacaLikePredictor(skl_machine),
        LlvmMcaPredictor(skl_machine),
    ]


@pytest.fixture(scope="session")
def zen_predictors(zen_machine, zen_palmed, zen_pmevo):
    # IACA does not support AMD machines (N/A cells in the paper).
    return [
        PalmedPredictor(zen_palmed),
        zen_pmevo,
        LlvmMcaPredictor(zen_machine),
    ]


@pytest.fixture(scope="session")
def spec_suite(bench_isa):
    return generate_spec_like_suite(bench_isa, n_blocks=150, seed=0)


@pytest.fixture(scope="session")
def polybench_suite(bench_isa):
    return generate_polybench_like_suite(bench_isa, seed=0, bookkeeping_blocks=20)


@pytest.fixture(scope="session")
def all_evaluations(
    skl_backend, zen_backend, skl_predictors, zen_predictors, spec_suite, polybench_suite
):
    """Every (machine, suite) evaluation, computed once per session.

    Shared by the Fig. 4a and Fig. 4b benches (and anything else comparing
    tools) so that the two files see *identical* evaluation objects no
    matter which of them runs first, or whether they run in the same
    session at all — the assertions are order-independent by construction.
    """
    from repro.evaluation import evaluate_predictors

    evaluations = {}
    evaluations[("SKL-SP", "SPEC2017")] = evaluate_predictors(
        skl_backend, spec_suite, skl_predictors, machine_name="SKL-like"
    )
    evaluations[("SKL-SP", "Polybench")] = evaluate_predictors(
        skl_backend, polybench_suite, skl_predictors, machine_name="SKL-like"
    )
    evaluations[("ZEN1", "SPEC2017")] = evaluate_predictors(
        zen_backend, spec_suite, zen_predictors, machine_name="ZEN1-like"
    )
    evaluations[("ZEN1", "Polybench")] = evaluate_predictors(
        zen_backend, polybench_suite, zen_predictors, machine_name="ZEN1-like"
    )
    return evaluations


@pytest.fixture(scope="session")
def skl_spec_evaluation(all_evaluations):
    """The SKL/SPEC-like evaluation (the Fig. 4a input)."""
    return all_evaluations[("SKL-SP", "SPEC2017")]
