"""The benchmarking campaign (paper Sect. III-B/C).

Reproduces the paper's two-stage data-acquisition methodology:

1. **Base tests** (:mod:`~repro.campaign.base_tests`): consolidate
   1..16 VMs of the *same* application class on one server, yielding
   the per-class curves of Fig. 2 and, via
   :mod:`~repro.campaign.optimal`, the Table I parameters
   OSPx / OSEx / Tx and OSx = max(OSPx, OSEx).
2. **Combined tests** (:mod:`~repro.campaign.combined_tests`): run all
   (Ncpu, Nmem, Nio) mixes with 0 <= Nx <= OSx, excluding the all-zero
   and single-class combinations already covered by the base tests --
   ``(OSC+1)(OSM+1)(OSI+1) - (1+OSC+OSM+OSI)`` runs.

Results are stored as Table II records (:mod:`~repro.campaign.records`)
in a sorted plain-text CSV database plus an auxiliary parameter file
(:mod:`~repro.campaign.csvdb`), exactly the storage format the paper
describes.  :mod:`~repro.campaign.platformrunner` is the equivalent of
the paper's automation platform ("a platform that we developed to
automatically run the benchmarks and process the data").
"""

from repro.common.lazy import lazy_exports

__all__ = [
    "BenchmarkRecord",
    "MixKey",
    "total_vms",
    "BaseTestPoint",
    "run_base_tests",
    "ClassOptima",
    "OptimalScenarios",
    "extract_optima",
    "combination_grid",
    "expected_combination_count",
    "run_combined_tests",
    "read_auxiliary_file",
    "read_records_csv",
    "write_auxiliary_file",
    "write_records_csv",
    "CampaignResult",
    "run_campaign",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.campaign.records": ("BenchmarkRecord", "MixKey", "total_vms"),
        "repro.campaign.base_tests": ("BaseTestPoint", "run_base_tests"),
        "repro.campaign.optimal": ("ClassOptima", "OptimalScenarios", "extract_optima"),
        "repro.campaign.combined_tests": (
            "combination_grid",
            "expected_combination_count",
            "run_combined_tests",
        ),
        "repro.campaign.csvdb": (
            "read_auxiliary_file",
            "read_records_csv",
            "write_auxiliary_file",
            "write_records_csv",
        ),
        "repro.campaign.platformrunner": ("CampaignResult", "run_campaign"),
    },
)
