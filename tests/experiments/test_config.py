"""Unit tests for the evaluation configuration."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.config import LARGER, SMALLER, EvaluationConfig


class TestPaperConfigs:
    def test_larger_is_about_15_percent_bigger(self):
        ratio = LARGER.n_servers / SMALLER.n_servers
        assert 1.10 < ratio < 1.20

    def test_paper_vm_budget(self):
        assert SMALLER.vm_budget == 10_000
        assert LARGER.vm_budget == 10_000

    def test_labels(self):
        assert SMALLER.label == "SMALLER"
        assert LARGER.label == "LARGER"


class TestValidation:
    def test_bad_servers(self):
        with pytest.raises(ConfigurationError):
            EvaluationConfig(label="x", n_servers=0)

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            EvaluationConfig(label="x", n_servers=1, vm_budget=0)

    def test_bad_qos_factor(self):
        with pytest.raises(ConfigurationError):
            EvaluationConfig(label="x", n_servers=1, qos_factor=1.0)

    def test_nan_qos_factor_rejected(self):
        with pytest.raises(ConfigurationError, match="got nan"):
            EvaluationConfig(label="x", n_servers=1, qos_factor=float("nan"))

    def test_infinite_qos_factor_accepted(self):
        config = EvaluationConfig(label="x", n_servers=1, qos_factor=float("inf"))
        assert config.qos_factor == float("inf")


class TestScaled:
    def test_servers_scale_proportionally(self):
        scaled = SMALLER.scaled(2500)
        assert scaled.n_servers == round(SMALLER.n_servers * 0.25)
        assert scaled.vm_budget == 2500

    def test_load_pressure_preserved(self):
        # The per-server arrival pressure ~ n_servers * burst interval
        # stays constant: interval scales as 1/ratio.
        scaled = SMALLER.scaled(2500)
        full_interval = SMALLER.mean_burst_gap_s + 6.0
        scaled_interval = scaled.mean_burst_gap_s + 6.0
        assert scaled_interval == pytest.approx(full_interval / 0.25)

    def test_identity_scale(self):
        same = SMALLER.scaled(SMALLER.vm_budget)
        assert same.n_servers == SMALLER.n_servers
        assert same.mean_burst_gap_s == pytest.approx(SMALLER.mean_burst_gap_s)

    def test_scaled_keeps_seed_and_label(self):
        scaled = LARGER.scaled(1000)
        assert scaled.label == "LARGER"
        assert scaled.seed == LARGER.seed

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            SMALLER.scaled(0)

    def test_minimum_one_server(self):
        tiny = SMALLER.scaled(10)
        assert tiny.n_servers >= 1
