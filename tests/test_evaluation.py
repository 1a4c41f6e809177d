"""Tests for the evaluation metrics, harness, heatmaps and reporting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Microkernel, PortModelBackend
from repro.evaluation import (
    PAPER_FIG4B,
    build_heatmap,
    coverage,
    evaluate_predictors,
    format_accuracy_table,
    format_comparison_with_paper,
    format_table2_comparison,
    kendall_tau,
    rms_error,
)
from repro.machines import build_toy_machine
from repro.machines.toy import TOY_INSTRUCTIONS
from repro.predictors import PalmedPredictor, UopsInfoPredictor
from repro.workloads import BasicBlock, BenchmarkSuite


class TestRmsError:
    def test_perfect_prediction_is_zero(self):
        assert rms_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_known_value(self):
        # Single sample, 50% over-prediction.
        assert rms_error([3.0], [2.0]) == pytest.approx(0.5)

    def test_weighting(self):
        # The heavily weighted exact sample dominates the error.
        unweighted = rms_error([2.0, 4.0], [2.0, 2.0])
        weighted = rms_error([2.0, 4.0], [2.0, 2.0], weights=[99.0, 1.0])
        assert weighted < unweighted

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rms_error([], [])
        with pytest.raises(ValueError):
            rms_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rms_error([1.0], [0.0])
        with pytest.raises(ValueError):
            rms_error([1.0], [1.0], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            rms_error([1.0], [1.0], weights=[0.0])

    @settings(max_examples=40, deadline=None)
    @given(
        natives=st.lists(st.floats(min_value=0.1, max_value=8.0), min_size=1, max_size=20),
        scale=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_uniform_scaling_gives_constant_relative_error(self, natives, scale):
        predicted = [value * scale for value in natives]
        assert rms_error(predicted, natives) == pytest.approx(abs(scale - 1.0), rel=1e-6)


class TestKendallTau:
    def test_perfect_correlation(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert kendall_tau([4, 3, 2, 1], [1, 2, 3, 4]) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        from scipy import stats

        predicted = [1.0, 3.0, 2.0, 5.0, 4.0, 4.0]
        native = [1.0, 2.0, 3.0, 4.0, 5.0, 4.5]
        expected = stats.kendalltau(predicted, native).statistic
        assert kendall_tau(predicted, native) == pytest.approx(expected, abs=1e-9)

    def test_constant_sequence_returns_zero(self):
        assert kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_one_ulp_differences_are_ties(self):
        # Predictions equal in exact arithmetic can come out one ulp apart;
        # nudging them must not invent orderings.
        predicted = [1.0, 1.0, 2.0, 2.0, 3.0, 0.5]
        native = [1.1, 0.9, 2.5, 1.5, 3.0, 0.4]
        nudged = [
            math.nextafter(value, math.inf if index % 2 else -math.inf)
            for index, value in enumerate(predicted)
        ]
        assert nudged != predicted
        assert kendall_tau(nudged, native) == kendall_tau(predicted, native)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            kendall_tau([1.0], [1.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, 3.25]),
                st.sampled_from([0.0, 1.0, 2.0, 2.0 - 2**-51, 4.0]),
            ),
            min_size=2,
            max_size=20,
        )
    )
    def test_matches_pairwise_loop(self, pairs):
        # The vectorized rows count exactly what a pairwise loop counts.
        def tied(a, b):
            return abs(a - b) <= 1e-9 * max(abs(a), abs(b))

        predicted = [p for p, _ in pairs]
        native = [n for _, n in pairs]
        concordant = discordant = ties_left = ties_right = 0
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                tie_x = tied(predicted[i], predicted[j])
                tie_y = tied(native[i], native[j])
                ties_left += tie_x
                ties_right += tie_y
                if not (tie_x or tie_y):
                    if (predicted[i] > predicted[j]) == (native[i] > native[j]):
                        concordant += 1
                    else:
                        discordant += 1
        total = len(pairs) * (len(pairs) - 1) // 2
        if total == ties_left or total == ties_right:
            expected = 0.0
        else:
            expected = (concordant - discordant) / math.sqrt(
                (total - ties_left) * (total - ties_right)
            )
        assert kendall_tau(predicted, native) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=15))
    def test_bounded_in_minus_one_one(self, values):
        reference = list(range(len(values)))
        tau = kendall_tau(values, reference)
        assert -1.0 - 1e-9 <= tau <= 1.0 + 1e-9


class TestCoverage:
    def test_basic(self):
        assert coverage(50, 100) == 0.5
        assert coverage(0, 10) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            coverage(1, 0)
        with pytest.raises(ValueError):
            coverage(5, 4)
        with pytest.raises(ValueError):
            coverage(-1, 4)


@pytest.fixture(scope="module")
def toy_evaluation():
    machine = build_toy_machine()
    backend = PortModelBackend(machine)
    addss = TOY_INSTRUCTIONS["ADDSS"]
    bsr = TOY_INSTRUCTIONS["BSR"]
    divps = TOY_INSTRUCTIONS["DIVPS"]
    suite = BenchmarkSuite(
        "toy-suite",
        [
            BasicBlock("b0", Microkernel({addss: 2, bsr: 1}), weight=5.0),
            BasicBlock("b1", Microkernel({addss: 1, bsr: 2}), weight=2.0),
            BasicBlock("b2", Microkernel({divps: 2, addss: 2}), weight=1.0),
            BasicBlock("b3", Microkernel({bsr: 1, divps: 1}), weight=1.0),
        ],
    )
    perfect = PalmedPredictor(machine.true_conjunctive(include_front_end=True), name="Palmed")
    partial = PalmedPredictor(
        machine.true_conjunctive(include_front_end=True).restricted([addss, bsr]),
        name="partial",
    )
    uops = UopsInfoPredictor(machine)
    result = evaluate_predictors(backend, suite, [perfect, partial, uops], machine_name="toy")
    return machine, suite, result


class TestHarness:
    def test_record_count(self, toy_evaluation):
        _, suite, result = toy_evaluation
        assert len(result.records) == len(suite)
        assert result.suite_name == "toy-suite"

    def test_perfect_predictor_metrics(self, toy_evaluation):
        _, _, result = toy_evaluation
        metrics = result.metrics("Palmed")
        assert metrics.coverage == pytest.approx(1.0)
        assert metrics.rms_error == pytest.approx(0.0, abs=1e-9)
        assert metrics.kendall_tau > 0.9

    def test_partial_predictor_coverage(self, toy_evaluation):
        _, _, result = toy_evaluation
        metrics = result.metrics("partial")
        assert metrics.coverage == pytest.approx(1.0)  # degraded mode still processes
        assert metrics.rms_error > 0.0

    def test_ratios_for_heatmap(self, toy_evaluation):
        _, _, result = toy_evaluation
        ratios = result.ratios("Palmed")
        assert len(ratios) == len(result.records)
        assert all(ratio == pytest.approx(1.0) for ratio in ratios)

    def test_all_metrics_lists_every_tool(self, toy_evaluation):
        _, _, result = toy_evaluation
        tools = {metrics.tool for metrics in result.all_metrics()}
        assert tools == {"Palmed", "partial", "uops.info"}


class TestHeatmap:
    def test_perfect_tool_mass_on_diagonal(self, toy_evaluation):
        _, _, result = toy_evaluation
        heatmap = build_heatmap(result, "Palmed", x_bins=10, y_bins=10)
        assert heatmap.total_weight == pytest.approx(9.0)
        assert heatmap.mass_within(0.9, 1.1) == pytest.approx(1.0)
        # The mean ratio is computed from bin centers, so it can be off by up
        # to half a bin width (0.1 here) even for a perfect predictor.
        assert heatmap.mean_ratio() == pytest.approx(1.0, abs=0.11)

    def test_ascii_rendering(self, toy_evaluation):
        _, _, result = toy_evaluation
        heatmap = build_heatmap(result, "Palmed", x_bins=8, y_bins=6)
        text = heatmap.render_ascii()
        assert len(text.splitlines()) == 6

    def test_empty_tool(self, toy_evaluation):
        _, _, result = toy_evaluation
        heatmap = build_heatmap(result, "nonexistent-tool")
        assert heatmap.total_weight == 0.0
        assert math.isnan(heatmap.mean_ratio())


class TestReporting:
    def test_accuracy_table_contains_all_tools(self, toy_evaluation):
        _, _, result = toy_evaluation
        table = format_accuracy_table([result])
        assert "Palmed" in table and "uops.info" in table
        assert "Err. (%)" in table

    def test_paper_comparison_line(self, toy_evaluation):
        _, _, result = toy_evaluation
        line = format_comparison_with_paper(result.metrics("Palmed"), "SKL-SP", "SPEC2017")
        assert "paper" in line and "7.8" in line

    def test_paper_comparison_unknown_cell(self, toy_evaluation):
        _, _, result = toy_evaluation
        line = format_comparison_with_paper(result.metrics("partial"), "SKL-SP", "SPEC2017")
        assert "not reported" in line

    def test_table2_comparison(self):
        text = format_table2_comparison({"Resources found": 7}, "SKL-SP")
        assert "Resources found" in text
        assert "17" in text and "7" in text

    def test_paper_reference_table_covers_both_machines(self):
        machines = {key[0] for key in PAPER_FIG4B}
        assert machines == {"SKL-SP", "ZEN1"}
