"""Unit tests for the combined-test grid."""

import pytest

from repro.campaign.combined_tests import (
    combination_grid,
    expected_combination_count,
    run_combined_tests,
)
from repro.campaign.optimal import ClassOptima, OptimalScenarios
from repro.common.errors import ConfigurationError
from repro.testbed.benchmarks import WorkloadClass
from repro.testbed.spec import default_server
from tests.oracles.runner import build_mix_instances


def optima(osc=2, osm=2, osi=2):
    def entry(workload_class, bound):
        return ClassOptima(workload_class, osp=bound, ose=1, t_single_s=100.0)

    return OptimalScenarios(
        per_class={
            WorkloadClass.CPU: entry(WorkloadClass.CPU, osc),
            WorkloadClass.MEM: entry(WorkloadClass.MEM, osm),
            WorkloadClass.IO: entry(WorkloadClass.IO, osi),
        }
    )


class TestCountFormula:
    @pytest.mark.parametrize(
        "osc,osm,osi",
        [(1, 1, 1), (2, 2, 2), (9, 7, 7), (3, 1, 2), (0, 0, 0)],
    )
    def test_grid_matches_paper_formula(self, osc, osm, osi):
        keys = list(combination_grid(osc, osm, osi))
        assert len(keys) == expected_combination_count(osc, osm, osi)

    def test_formula_value(self):
        # The paper's expression evaluated by hand for (2,2,2):
        # 3*3*3 - (1+2+2+2) = 27 - 7 = 20.
        assert expected_combination_count(2, 2, 2) == 20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expected_combination_count(-1, 0, 0)


class TestGridContents:
    def test_excludes_base_and_empty(self):
        keys = set(combination_grid(2, 2, 2))
        assert (0, 0, 0) not in keys
        assert (1, 0, 0) not in keys  # base test
        assert (0, 2, 0) not in keys  # base test
        assert (1, 1, 0) in keys
        assert (2, 2, 2) in keys

    def test_sorted_ascending(self):
        keys = list(combination_grid(3, 2, 2))
        assert keys == sorted(keys)


class TestBuildMixInstances:
    def test_counts_match_key(self):
        instances = build_mix_instances((2, 1, 1))
        assert len(instances) == 4
        names = [vm.benchmark.name for vm in instances]
        assert names.count("fftw") == 2
        assert names.count("sysbench") == 1
        assert names.count("b_eff_io") == 1

    def test_unique_ids(self):
        instances = build_mix_instances((3, 2, 1))
        ids = [vm.vm_id for vm in instances]
        assert len(set(ids)) == len(ids)


class TestRunCombinedTests:
    def test_produces_expected_records(self):
        records = run_combined_tests(default_server(), optima(1, 1, 1))
        assert len(records) == expected_combination_count(1, 1, 1)
        keys = [r.key for r in records]
        assert keys == sorted(keys)

    def test_oversized_corner_rejected(self):
        server = default_server()
        big = (server.max_vms, server.max_vms, server.max_vms)
        with pytest.raises(ConfigurationError, match="corner"):
            run_combined_tests(server, optima(*big))
