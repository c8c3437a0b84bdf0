"""Unit tests for the QoS policy."""

import pytest

from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import WORKLOAD_CLASSES, WorkloadClass
from repro.workloads.qos import QoSPolicy


class TestQoSPolicy:
    def test_deadline_is_submit_plus_budget(self):
        policy = QoSPolicy(
            max_response_s={
                WorkloadClass.CPU: 1000.0,
                WorkloadClass.MEM: 2000.0,
                WorkloadClass.IO: 3000.0,
            }
        )
        assert policy.deadline_for(WorkloadClass.CPU, 500.0) == 1500.0
        assert policy.max_response(WorkloadClass.IO) == 3000.0

    def test_missing_class_rejected(self):
        with pytest.raises(ConfigurationError):
            QoSPolicy(max_response_s={WorkloadClass.CPU: 1000.0})

    def test_non_positive_rejected(self):
        bad = {c: 100.0 for c in WORKLOAD_CLASSES}
        bad[WorkloadClass.MEM] = 0.0
        with pytest.raises(ConfigurationError):
            QoSPolicy(max_response_s=bad)

    def test_from_optima_scales_reference_times(self, campaign):
        policy = QoSPolicy.from_optima(campaign.optima, factor=4.0)
        assert policy.max_response(WorkloadClass.CPU) == pytest.approx(4 * 600.0)
        assert policy.max_response(WorkloadClass.IO) == pytest.approx(4 * 800.0)

    def test_from_optima_requires_factor_above_one(self, campaign):
        with pytest.raises(ConfigurationError):
            QoSPolicy.from_optima(campaign.optima, factor=1.0)

    def test_from_optima_rejects_nan_factor(self, campaign):
        # NaN deadlines would fail every comparison and never bind.
        with pytest.raises(ConfigurationError, match="got nan"):
            QoSPolicy.from_optima(campaign.optima, factor=float("nan"))

    def test_from_optima_infinite_factor_means_no_deadline(self, campaign):
        policy = QoSPolicy.from_optima(campaign.optima, factor=float("inf"))
        for workload_class in WORKLOAD_CLASSES:
            assert policy.max_response(workload_class) == float("inf")

    def test_unlimited_never_binds(self):
        policy = QoSPolicy.unlimited()
        assert policy.deadline_for(WorkloadClass.CPU, 5.0) == float("inf")
