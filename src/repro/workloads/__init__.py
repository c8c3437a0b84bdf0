"""Workload traces (paper Sect. IV-B).

The paper drives its evaluation with production traces from the Grid
Observatory (logs of the EGEE Grid), pre-processed as follows:

1. convert the raw logs (multiple formats) to the Standard Workload
   Format (SWF) and merge the files into a single trace,
2. clean the trace: drop failed jobs, cancelled jobs and anomalies,
3. complete the missing information: assign a benchmark profile to
   each request uniformly at random *by bursts* of 1-5 job requests
   ("intended to illustrate the submission of scientific HPC
   workflows, which are composed of sets of jobs with the same
   resource requirements"), scale each request to 1-4 VMs instead of
   its original CPU demand, and define QoS (maximum response time)
   per application type.

Since the original Grid Observatory logs are not redistributable, the
:mod:`~repro.workloads.synthetic` generator produces statistically
EGEE-like raw logs (bursty arrivals, heavy-tailed runtimes, a realistic
share of failed/cancelled jobs and anomalous records) in the same
multi-format shape, so that the *entire* pre-processing pipeline above
is exercised, not bypassed.
"""

from repro.workloads.swf import SWFRecord, JobStatus, read_swf, write_swf, merge_swf
from repro.workloads.synthetic import (
    EGEETraceConfig,
    generate_raw_grid_logs,
    generate_egee_like_trace,
)
from repro.workloads.rawlogs import (
    parse_raw_log,
    raw_log_to_swf,
    RawLogDialect,
)
from repro.workloads.cleaning import CleanReport, clean_trace
from repro.workloads.assignment import (
    PreparedJob,
    AssignmentConfig,
    assign_profiles_and_vms,
)
from repro.workloads.qos import QoSPolicy

__all__ = [
    "SWFRecord",
    "JobStatus",
    "read_swf",
    "write_swf",
    "merge_swf",
    "EGEETraceConfig",
    "generate_raw_grid_logs",
    "generate_egee_like_trace",
    "parse_raw_log",
    "raw_log_to_swf",
    "RawLogDialect",
    "CleanReport",
    "clean_trace",
    "PreparedJob",
    "AssignmentConfig",
    "assign_profiles_and_vms",
    "QoSPolicy",
]
