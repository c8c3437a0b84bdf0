"""Micro-benchmarks of the core components (not paper artifacts).

Useful for tracking performance regressions of the hot paths: the mix
runner, the allocator, the event engine and the trace pipeline.
"""

from repro.campaign.platformrunner import run_campaign
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.sim.engine import EventQueue
from repro.testbed.benchmarks import WorkloadClass, get_benchmark
from repro.testbed.runner import VMInstance, run_mix
from repro.testbed.spec import default_server
from repro.workloads.cleaning import clean_trace
from repro.workloads.synthetic import EGEETraceConfig, generate_egee_like_trace
from tests.campaign.test_campaign_golden import CAMPAIGN_DIGEST, campaign_digest


def test_mix_runner_16_vms(benchmark):
    """One emulated 16-VM mix run (the heaviest base test)."""
    server = default_server()
    fftw = get_benchmark("fftw")
    vms = [VMInstance(f"v{i}", fftw) for i in range(16)]
    result = benchmark(lambda: run_mix(server, vms))
    assert result.n_vms == 16


def test_default_campaign(benchmark):
    """The default model-building campaign: 664 emulated mixes."""
    campaign = benchmark(run_campaign)
    assert campaign_digest(campaign) == CAMPAIGN_DIGEST


def test_allocator_batch_latency(benchmark, database):
    """Allocate a paper-regime batch (4 VMs) over 64 busy servers."""
    requests = [
        VMRequest("c0", WorkloadClass.CPU),
        VMRequest("c1", WorkloadClass.CPU),
        VMRequest("m0", WorkloadClass.MEM),
        VMRequest("i0", WorkloadClass.IO),
    ]
    servers = [
        ServerState(f"s{i}", allocated=((i % 4), (i % 2), (i % 3)))
        for i in range(64)
    ]
    plan = benchmark(lambda: ProactiveAllocator(database, alpha=0.5).allocate(requests, servers))
    assert plan.n_vms == 4


def test_event_queue_throughput(benchmark):
    """Schedule + drain 10k events."""

    def churn():
        q: EventQueue[int] = EventQueue()
        for i in range(10_000):
            q.schedule(float(i % 977), i)
        count = 0
        while q:
            q.pop()
            count += 1
        return count

    assert benchmark(churn) == 10_000


def test_trace_pipeline_throughput(benchmark):
    """Generate + convert + merge + clean a 2,000-job raw trace."""

    def pipeline():
        raw = generate_egee_like_trace(EGEETraceConfig(n_jobs=2000), rng=3)
        cleaned, report = clean_trace(raw)
        return len(cleaned), report

    cleaned_len, report = benchmark(pipeline)
    assert report.total == 2000
    assert cleaned_len > 1000
