"""Tests for PalmedConfig validation and the result/stats objects."""

from __future__ import annotations

import pytest

from repro.palmed import PalmedConfig
from repro.palmed.result import PalmedStats


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = PalmedConfig()
        assert config.low_ipc_threshold == pytest.approx(0.95)

    def test_n_basic_bounds(self):
        with pytest.raises(ValueError):
            PalmedConfig(n_basic=1)
        with pytest.raises(ValueError):
            PalmedConfig(n_basic_cap=1)
        assert PalmedConfig(n_basic=None).n_basic is None

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            PalmedConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            PalmedConfig(epsilon=1.0)

    def test_lp2_mode_validation(self):
        with pytest.raises(ValueError):
            PalmedConfig(lp2_mode="magic")
        # LPAUX has one exact closed-form solver and no mode to choose.
        with pytest.raises(TypeError):
            PalmedConfig(lpaux_mode="exact")

    def test_max_resources_validation(self):
        with pytest.raises(ValueError):
            PalmedConfig(max_resources=1)

    def test_repeat_validation(self):
        with pytest.raises(ValueError):
            PalmedConfig(m_repeat=1)
        with pytest.raises(ValueError):
            PalmedConfig(l_repeat=0)

    def test_target_basic_count(self):
        auto = PalmedConfig(n_basic=None, n_basic_cap=10)
        assert auto.target_basic_count(6) == 6
        assert auto.target_basic_count(25) == 10
        explicit = PalmedConfig(n_basic=4)
        assert explicit.target_basic_count(25) == 4

    def test_fast_test_config_is_valid_and_cheaper(self):
        config = PalmedConfig().for_fast_tests()
        assert config.lp1_max_iterations <= PalmedConfig().lp1_max_iterations
        assert config.lp1_time_limit <= PalmedConfig().lp1_time_limit


class TestStatsFormatting:
    def test_table_contains_all_rows(self):
        stats = PalmedStats(
            machine_name="SKL-like",
            num_instructions_total=100,
            num_benchmarkable=95,
            num_instructions_mapped=90,
            num_basic_instructions=12,
            num_resources=9,
            num_benchmarks=1234,
            num_equivalence_classes=14,
            num_low_ipc=3,
            lp1_iterations=2,
            benchmarking_time=1.5,
            lp_time=20.0,
            total_time=22.0,
        )
        table = stats.format_table()
        assert "SKL-like" in table
        assert "1234" in table
        assert "Resources found" in table
        rows = dict(stats.as_table_rows())
        assert rows["Instructions mapped"] == "90"
        assert rows["Basic instructions"] == "12"
