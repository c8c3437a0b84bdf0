"""Property suite for the carbon temporal-signal layer.

Pins the contracts DESIGN.md states for the carbon scenario:

* piecewise integration is *exact* against closed forms (rectangles and
  trapezoids on dyadic breakpoints admit bit-exact expectations);
* the periodic extension is translation-invariant: shifting a span by
  whole periods reuses the identical operands, so the integral is
  bit-identical, not merely close;
* carbon/cost accounting is conserved across sharding and is
  bit-identical at any worker count, and re-integrating each server's
  chronicle reproduces its carbon and cost totals exactly, with faults,
  shards and a spilling ring too;
* ``alpha_carbon = 0`` is a byte-identity: same plan object, same wire
  document, same simulation metrics as a run that never heard of
  carbon;
* temporal shifting never worsens its own objective on any job, leaves
  no-slack workloads untouched, and emits the canonical job order.
"""

import json
import math
import random
from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.core.scoring import CarbonContext, ScoreWeights, carbon_axis
from repro.exec.sharded import run_sharded
from repro.ext.carbon.signal import (
    DAY_S,
    J_PER_KWH,
    TemporalSignal,
    TemporalSignals,
    daily_carbon_signal,
    double_peak_price_signal,
    load_signal,
    parse_carbon_signal,
    parse_price_signal,
    signal_from_document,
)
from repro.ext.carbon.options import CarbonOptions
from repro.ext.carbon.shifting import shift_deferrable
from repro.faults import FaultEvent, FaultKind, FaultSpec
from repro.service import schema
from repro.sim.datacenter import DatacenterConfig
from repro.strategies.firstfit import FirstFitStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy
from tests.oracles.carbon import carbon_of, cost_of
from tests.oracles.chronicle import iter_all

STEP = TemporalSignal(
    times_s=(0.0, 25.0, 50.0),
    values=(2.0, 4.0, 1.0),
    period_s=100.0,
    kind="step",
)
RAMP = TemporalSignal(
    times_s=(0.0, 50.0),
    values=(0.0, 10.0),
    period_s=100.0,
    kind="linear",
)


def make_jobs(n):
    classes = list(WorkloadClass)
    return [
        PreparedJob(
            job_id=i + 1,
            submit_time_s=900.0 * i,
            workload_class=classes[i % len(classes)],
            n_vms=1 + i % 3,
            burst_id=i // 4,
        )
        for i in range(n)
    ]


def signals_pair(seed=7):
    return TemporalSignals(
        carbon=daily_carbon_signal(seed), price=double_peak_price_signal(seed)
    )


def run(
    jobs=None, *, shards=1, workers=1, signals=None, chronicles=False, faults=None,
    **config,
):
    config = DatacenterConfig(
        n_servers=6,
        record_chronicles=chronicles,
        signals=signals,
        **config,
    )
    return run_sharded(
        jobs if jobs is not None else make_jobs(24),
        FirstFitStrategy(2),
        QoSPolicy.unlimited(),
        config,
        shards=shards,
        workers=workers,
        faults=faults,
    )


def assert_intervals_reaccount(result, pair):
    """Re-integrating every server's intervals in order replays the
    server's own float fold, bit for bit, on both axes."""
    assert len(result.chronicles) == result.n_servers
    totals = zip(result.chronicles, result.per_server_carbon_g, result.per_server_cost)
    for chronicle, carbon_g, cost in totals:
        carbon = recost = 0.0
        for interval in iter_all(chronicle):
            span = (interval.power_w, interval.t0_s, interval.t1_s)
            carbon += carbon_of(pair, *span)
            recost += cost_of(pair, *span)
        assert carbon == carbon_g
        assert recost == cost


class TestIntegrationExactness:
    """Closed forms on dyadic breakpoints must match to the last bit."""

    def test_step_full_period(self):
        # 2*25 + 4*25 + 1*50 rectangles.
        assert STEP.period_integral == 200.0

    def test_step_partial_spans(self):
        assert STEP.integrate(10.0, 30.0) == 2.0 * 15.0 + 4.0 * 5.0
        assert STEP.integrate(0.0, 25.0) == 50.0
        assert STEP.integrate(50.0, 100.0) == 50.0
        assert STEP.integrate(30.0, 30.0) == 0.0

    def test_linear_full_period(self):
        # Two trapezoids: 0->10 over 50s, then the wrap 10->0 over 50s.
        assert RAMP.period_integral == 500.0

    def test_linear_partial_spans(self):
        # value_at(25) = 5, value_at(75) = 5 on the wrapped ramp.
        assert RAMP.value_at(25.0) == 5.0
        assert RAMP.value_at(75.0) == 5.0
        assert RAMP.integrate(25.0, 75.0) == 0.5 * (5.0 + 10.0) * 25.0 * 2.0
        assert RAMP.integrate(0.0, 50.0) == 250.0

    def test_whole_periods_scale_exactly(self):
        for signal in (STEP, RAMP, daily_carbon_signal(3)):
            for k in (1.0, 2.0, 7.0, 31.0):
                assert signal.integrate(0.0, k * signal.period_s) == (
                    k * signal.period_integral
                )

    def test_empty_span_mean_is_point_value(self):
        for signal in (STEP, RAMP):
            for t in (0.0, 10.0, 62.5, 99.0, 150.0):
                assert signal.mean(t, t) == signal.value_at(t)

    def test_accounting_units(self):
        # 1 kW over one 100 s period of STEP: (1000/3.6e6) * 200 gCO2.
        pair = TemporalSignals(carbon=STEP)
        assert carbon_of(pair, 1000.0, 0.0, 100.0) == (1000.0 / J_PER_KWH) * 200.0
        assert cost_of(pair, 1000.0, 0.0, 100.0) == 0.0
        assert carbon_of(pair, 1000.0, 50.0, 50.0) == 0.0
        # Spending E joules uniformly over a window uses the mean value.
        assert pair.carbon_mass_g(J_PER_KWH, 0.0, 100.0) == STEP.period_mean


class TestTranslationInvariance:
    """integrate(t0 + k*P, t1 + k*P) is bit-identical to integrate(t0, t1)."""

    @pytest.mark.parametrize(
        "signal",
        [STEP, RAMP, daily_carbon_signal(11), double_peak_price_signal(11)],
        ids=["step", "ramp", "carbon", "price"],
    )
    def test_whole_period_translation(self, signal):
        rng = random.Random(42)
        period = signal.period_s
        for _ in range(50):
            t0 = float(rng.randrange(0, int(period)))
            t1 = t0 + float(rng.randrange(0, int(3 * period)))
            base = signal.integrate(t0, t1)
            for k in (1, 2, 10, 365):
                shift = k * period
                assert signal.integrate(t0 + shift, t1 + shift) == base

    def test_value_at_is_periodic(self):
        for signal in (STEP, RAMP):
            for t in (0.0, 12.5, 25.0, 75.0, 99.0):
                assert signal.value_at(t + signal.period_s) == signal.value_at(t)
                assert signal.value_at(t + 17 * signal.period_s) == signal.value_at(t)

    def test_breakpoints_between_covers_span(self):
        points = STEP.breakpoints_between(30.0, 230.0)
        assert points == [50.0, 100.0, 125.0, 150.0, 200.0, 225.0]


class TestValidation:
    """Every malformation raises ValueError with a pointed message."""

    def test_breakpoints_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0.0"):
            TemporalSignal(times_s=(1.0,), values=(1.0,), period_s=10.0)

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TemporalSignal(
                times_s=(0.0, 5.0, 5.0), values=(1.0, 1.0, 1.0), period_s=10.0
            )

    def test_breakpoints_below_period(self):
        with pytest.raises(ValueError, match="below the period"):
            TemporalSignal(times_s=(0.0, 10.0), values=(1.0, 1.0), period_s=10.0)

    def test_values_finite_non_negative(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            TemporalSignal(times_s=(0.0,), values=(-1.0,), period_s=10.0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            TemporalSignal(times_s=(0.0,), values=(math.nan,), period_s=10.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_knobs_rejected_naming_the_value(self, value):
        signals = TemporalSignals(carbon=daily_carbon_signal(1))
        with pytest.raises(ValueError, match=f"period_s must be positive and finite, got {value}"):
            TemporalSignal(times_s=(0.0,), values=(1.0,), period_s=value)
        with pytest.raises(ValueError, match=f"shift_margin must be positive and finite, got {value}"):
            CarbonOptions(signals=signals, shift_margin=value)
        with pytest.raises(ValueError, match=f"margin must be positive and finite, got {value}"):
            shift_deferrable([], signals, QoSPolicy.unlimited(), {}, margin=value)
        with pytest.raises(ValueError, match=f"t_ref_s must be non-negative and finite, got {value}"):
            CarbonContext(signals=signals, t_ref_s=value)

    def test_kind_and_arity(self):
        with pytest.raises(ValueError, match="kind"):
            TemporalSignal(times_s=(0.0,), values=(1.0,), period_s=10.0, kind="cubic")
        with pytest.raises(ValueError, match="breakpoints but"):
            TemporalSignal(times_s=(0.0,), values=(1.0, 2.0), period_s=10.0)
        with pytest.raises(ValueError, match="at least one"):
            TemporalSignal(times_s=(), values=(), period_s=10.0)

    def test_document_malformations(self):
        with pytest.raises(ValueError, match="JSON object"):
            signal_from_document([1, 2])
        with pytest.raises(ValueError, match="missing key"):
            signal_from_document({"kind": "step", "period_s": 10.0})
        with pytest.raises(ValueError, match="number pair"):
            signal_from_document(
                {"kind": "step", "period_s": 10.0, "points": [[0.0, "x"]]}
            )
        with pytest.raises(ValueError, match="non-empty array"):
            signal_from_document({"kind": "step", "period_s": 10.0, "points": []})

    def test_load_signal_errors(self, signal_file):
        with pytest.raises(ValueError, match="cannot read"):
            load_signal("/does/not/exist.json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_signal(signal_file(None, raw="{not json"))

    def test_load_signal_non_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "signal.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ValueError) as excinfo:
            load_signal(str(path))
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == (
            f"signal file {path} is not UTF-8 text: invalid start byte"
        )

    def test_signal_file_round_trip(self, signal_file):
        path = signal_file(STEP.document())
        assert load_signal(path) == STEP
        assert parse_carbon_signal(path) == STEP

    def test_synthetic_specs(self):
        assert parse_carbon_signal("synthetic:5") == daily_carbon_signal(5)
        assert parse_price_signal("synthetic:5") == double_peak_price_signal(5)
        with pytest.raises(ValueError, match="integer"):
            parse_carbon_signal("synthetic:xyz")
        with pytest.raises(ValueError, match="empty"):
            parse_price_signal("  ")

    def test_signals_pair_needs_one(self):
        with pytest.raises(ValueError, match="carbon or a price"):
            TemporalSignals()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            STEP.integrate(-1.0, 5.0)
        with pytest.raises(ValueError, match=">= 0"):
            STEP.value_at(-1.0)
        with pytest.raises(ValueError, match="ends before"):
            STEP.integrate(5.0, 1.0)
        with pytest.raises(ValueError, match="ends before"):
            STEP.breakpoints_between(5.0, 1.0)

    def test_period_must_be_number(self):
        with pytest.raises(ValueError, match="'period_s' must be a number"):
            signal_from_document(
                {"kind": "step", "period_s": "ten", "points": [[0.0, 1.0]]}
            )

    def test_absent_signal_contributes_zero(self):
        carbon_only = TemporalSignals(carbon=STEP)
        price_only = TemporalSignals(price=STEP)
        assert carbon_only.energy_cost(1.0e6, 0.0, 50.0) == 0.0
        assert price_only.carbon_mass_g(1.0e6, 0.0, 50.0) == 0.0


class TestCarbonOptions:
    def test_signals_type_checked(self):
        from repro.ext.carbon.options import CarbonOptions

        with pytest.raises(ValueError, match="TemporalSignals"):
            CarbonOptions(signals=STEP)

    def test_allocator_context_gating(self):
        from repro.ext.carbon.options import CarbonOptions

        pair = signals_pair()
        assert CarbonOptions(signals=pair).allocator_context() is None
        context = CarbonOptions(signals=pair, alpha_carbon=0.5).allocator_context()
        assert isinstance(context, CarbonContext)
        assert context.alpha_carbon == 0.5

    def test_apply_shift_identity_when_off(self):
        from repro.ext.carbon.options import CarbonOptions

        jobs = make_jobs(5)
        qos = QoSPolicy({cls: 10_000.0 for cls in WorkloadClass})
        refs = {cls: 100.0 for cls in WorkloadClass}
        shifted, moved = CarbonOptions(signals=signals_pair()).apply_shift(
            jobs, qos, refs
        )
        assert moved == 0
        assert shifted == list(jobs)


class TestAccountingConservation:
    """Carbon mass and cost survive sharding, pooling, and recomputation."""

    def test_bit_identical_at_any_worker_count(self):
        serial = run(shards=3, workers=1, signals=signals_pair())
        pooled = run(shards=3, workers=3, signals=signals_pair())
        assert pooled.metrics.carbon_g == serial.metrics.carbon_g
        assert pooled.metrics.cost == serial.metrics.cost
        assert pooled.per_server_carbon_g == serial.per_server_carbon_g
        assert pooled.per_server_cost == serial.per_server_cost

    def test_totals_are_per_server_sums(self):
        result = run(shards=1, signals=signals_pair())
        assert result.metrics.carbon_g == sum(result.per_server_carbon_g)
        assert result.metrics.cost == sum(result.per_server_cost)
        assert result.metrics.carbon_g > 0.0
        assert result.metrics.cost > 0.0

    def test_sharded_totals_conserve_shard_sums(self):
        # Merging folds the per-shard totals in shard order; the
        # concatenated per-server tuples must account for every gram.
        result = run(shards=3, signals=signals_pair())
        assert len(result.per_server_carbon_g) == result.n_servers
        assert result.metrics.carbon_g == pytest.approx(
            math.fsum(result.per_server_carbon_g), rel=1e-12
        )
        assert result.metrics.cost == pytest.approx(
            math.fsum(result.per_server_cost), rel=1e-12
        )

    def test_chronicle_recomputation_is_exact(self):
        pair = signals_pair()
        assert_intervals_reaccount(run(shards=1, signals=pair, chronicles=True), pair)

    def test_recomputation_survives_faults_shards_and_spill(self, tmp_path):
        # Crashes evict and re-place VMs, slowdowns stretch intervals,
        # shards split the servers over three spill files, and a ring
        # of two pushes nearly every interval through the spill.
        pair = signals_pair()
        faults = FaultSpec(
            events=(
                FaultEvent(kind=FaultKind.SERVER_CRASH, time_s=2000.0, server=1),
                FaultEvent(kind=FaultKind.SERVER_RECOVER, time_s=6000.0, server=1),
                FaultEvent(
                    kind=FaultKind.SLOWDOWN,
                    time_s=1000.0,
                    server=4,
                    duration_s=3000.0,
                    factor=1.5,
                ),
            )
        )
        result = run(
            shards=3,
            signals=pair,
            chronicles=True,
            faults=faults,
            chronicle_capacity=2,
            chronicle_spill_path=str(tmp_path / "spill.jsonl"),
        )
        assert result.fault_log
        assert sum(c.n_evicted for c in result.chronicles) > 0
        assert_intervals_reaccount(result, pair)

    def test_carbon_only_and_price_only(self):
        carbon_only = run(signals=TemporalSignals(carbon=daily_carbon_signal(7)))
        price_only = run(signals=TemporalSignals(price=double_peak_price_signal(7)))
        assert carbon_only.metrics.carbon_g > 0.0
        assert carbon_only.metrics.cost == 0.0
        assert price_only.metrics.carbon_g == 0.0
        assert price_only.metrics.cost > 0.0

    def test_fused_accrue_matches_unfused_pair_bitwise(self):
        # The simulator's hot path calls the fused accrue(); its fast
        # branches must reproduce carbon_of/cost_of bit for bit on
        # every span shape (within-segment, cross-segment, cross-period,
        # empty), for shared-period and mixed-period signal pairs.
        shifted_price = replace(double_peak_price_signal(7), period_s=2.0 * DAY_S)
        pairs = [
            signals_pair(),
            TemporalSignals(carbon=STEP, price=RAMP),
            TemporalSignals(carbon=STEP, price=replace(STEP, values=(0.3, 0.05, 0.2))),
            TemporalSignals(carbon=daily_carbon_signal(7), price=shifted_price),
            TemporalSignals(carbon=daily_carbon_signal(7)),
            TemporalSignals(price=double_peak_price_signal(7)),
        ]
        rng = random.Random(2026)
        for pair in pairs:
            period = max(
                signal.period_s
                for signal in (pair.carbon, pair.price)
                if signal is not None
            )
            for _ in range(400):
                t0 = rng.uniform(0.0, 3.0 * period)
                t1 = t0 + rng.uniform(0.0, 1.5 * period) * rng.choice((0.0, 0.001, 1.0))
                assert pair.accrue(450.0, t0, t1) == (
                    carbon_of(pair, 450.0, t0, t1),
                    cost_of(pair, 450.0, t0, t1),
                )

    def test_residue_exact_at_float_edges(self):
        # The decomposition uses ``math.fmod``, whose residue is exact
        # -- unlike ``t - (t // P) * P``, which at these searched-for
        # inputs lands outside [0, P) (raw residues -0.5 and +1.0
        # after the product rounds).  The periodic extension must
        # report in-range values even where the float grid is coarser
        # than the period, empty spans must integrate to zero, and the
        # fused pair must agree with the unfused calls bitwise.
        triggers = (
            (4144245188391053.5, 1.0 / 3.0, (0.0, 0.2)),
            (5931837303800576.0, 0.07, (0.0, 0.03)),
            (997550047562.7, 0.3, (0.0, 0.2)),
        )
        for t, period, times in triggers:
            step = TemporalSignal(
                times_s=times, values=(2.0, 4.0), period_s=period, kind="step"
            )
            ramp = TemporalSignal(
                times_s=times, values=(1.0, 3.0), period_s=period, kind="linear"
            )
            for signal in (step, ramp):
                assert min(signal.values) <= signal.value_at(t) <= max(signal.values)
                assert signal.integrate(t, t) == 0.0
                assert signal.integrate(t, t + 1.0) >= 0.0
            pair = TemporalSignals(carbon=step, price=replace(step, values=(0.3, 0.1)))
            assert pair.accrue(450.0, t, t + 1.0) == (
                carbon_of(pair, 450.0, t, t + 1.0),
                cost_of(pair, 450.0, t, t + 1.0),
            )


class TestAlphaCarbonZeroIdentity:
    """Signals without steering must not move a single bit elsewhere."""

    def test_simulation_metrics_identical(self):
        plain = run()
        accounted = run(signals=signals_pair())
        p, a = plain.metrics, accounted.metrics
        assert a.makespan_s == p.makespan_s
        assert a.energy_j == p.energy_j
        assert a.busy_energy_j == p.busy_energy_j
        assert a.idle_energy_j == p.idle_energy_j
        assert a.sla_violations == p.sla_violations
        assert a.mean_response_s == p.mean_response_s
        assert plain.metrics.carbon_g == 0.0
        assert plain.per_server_carbon_g == ()
        assert accounted.outcomes == plain.outcomes

    def test_score_weights_alpha_carbon_zero_exact(self):
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0, 0.1234567):
            base = ScoreWeights(alpha=alpha)
            carbon = ScoreWeights(alpha=alpha, alpha_carbon=0.0)
            assert carbon.energy_weight == base.energy_weight == alpha
            assert carbon.time_weight == base.time_weight
            assert carbon.carbon_weight == 0.0
            assert carbon.describe() == base.describe()

    def test_plan_and_wire_document_byte_identical(self, database):
        requests = [
            VMRequest(f"vm-{i}", cls)
            for i, cls in enumerate(
                [WorkloadClass.CPU] * 3 + [WorkloadClass.MEM] * 2 + [WorkloadClass.IO]
            )
        ]
        servers = lambda: [ServerState(f"s{i}") for i in range(3)]  # noqa: E731
        plain = ProactiveAllocator(database, alpha=0.5)
        inert = ProactiveAllocator(
            database,
            alpha=0.5,
            carbon=CarbonContext(signals=signals_pair(), alpha_carbon=0.0),
        )
        plan_a = plain.allocate(requests, servers())
        plan_b = inert.allocate(requests, servers())
        assert plan_a == plan_b
        bytes_a = json.dumps(schema.plan_document(plan_a), sort_keys=True)
        bytes_b = json.dumps(schema.plan_document(plan_b), sort_keys=True)
        assert bytes_a == bytes_b
        assert '"alpha_carbon"' not in bytes_a


class TestThreeWayScoring:
    def test_carbon_plan_carries_estimates(self, database):
        requests = [VMRequest("vm-0", WorkloadClass.CPU), VMRequest("vm-1", WorkloadClass.MEM)]
        allocator = ProactiveAllocator(
            database,
            alpha=0.5,
            carbon=CarbonContext(signals=signals_pair(), alpha_carbon=0.4),
        )
        plan = allocator.allocate(requests, [ServerState("s0"), ServerState("s1")])
        assert plan.alpha_carbon == 0.4
        assert plan.estimated_carbon_g is not None and plan.estimated_carbon_g > 0.0
        assert plan.estimated_cost is not None and plan.estimated_cost > 0.0
        document = schema.plan_document(plan)
        assert document["alpha_carbon"] == 0.4
        decoded = schema.decode_plan(document)
        assert decoded.alpha_carbon == 0.4
        assert decoded.estimated_carbon_g == plan.estimated_carbon_g
        assert decoded.estimated_cost == plan.estimated_cost

    def test_carbon_rejects_forced_anytime(self, database):
        with pytest.raises(ConfigurationError, match="anytime"):
            ProactiveAllocator(
                database,
                alpha=0.5,
                time_budget_s=1.0,
                carbon=CarbonContext(signals=signals_pair(), alpha_carbon=0.5),
            )

    def test_carbon_axis_normalizes_per_dimension(self):
        impacts = [(10.0, 0.2), (5.0, 0.4), (0.0, 0.0)]
        axis = carbon_axis(impacts)
        assert axis[0] == 0.5 * (10.0 / 10.0 + 0.2 / 0.4)
        assert axis[2] == 0.0
        assert carbon_axis([(0.0, 0.0)]) == [0.0]


class TestShifting:
    CHEAP_WINDOW = TemporalSignal(
        # Expensive all day except a cheap 6h block starting at 21600s.
        times_s=(0.0, 21_600.0, 43_200.0),
        values=(10.0, 1.0, 10.0),
        period_s=DAY_S,
        kind="step",
    )

    def make_peak_jobs(self, n=12, reference=3_600.0):
        # All submitted inside the expensive morning band.
        return [
            PreparedJob(
                job_id=i + 1,
                submit_time_s=600.0 * i,
                workload_class=WorkloadClass.CPU,
                n_vms=1,
                burst_id=0,
            )
            for i in range(n)
        ]

    def shift(self, jobs, slack_factor=10.0, margin=1.25, reference=3_600.0):
        signals = TemporalSignals(price=self.CHEAP_WINDOW)
        qos = QoSPolicy({cls: slack_factor * reference for cls in WorkloadClass})
        refs = {cls: reference for cls in WorkloadClass}
        return (
            shift_deferrable(jobs, signals, qos, refs, margin=margin),
            signals,
            reference,
        )

    def test_objective_never_increases(self):
        jobs = self.make_peak_jobs()
        (shifted, moved), signals, reference = self.shift(jobs)
        assert moved > 0
        by_id = {job.job_id: job for job in shifted}
        for before in jobs:
            after = by_id[before.job_id]
            assert after.submit_time_s >= before.submit_time_s
            load_before = signals.price.integrate(
                before.submit_time_s, before.submit_time_s + reference
            )
            load_after = signals.price.integrate(
                after.submit_time_s, after.submit_time_s + reference
            )
            assert load_after <= load_before

    def test_moved_jobs_land_in_cheap_window(self):
        jobs = self.make_peak_jobs(n=4)
        (shifted, moved), signals, reference = self.shift(jobs)
        assert moved == 4
        for job in shifted:
            assert signals.price.mean(
                job.submit_time_s, job.submit_time_s + reference
            ) == 1.0

    def test_no_slack_is_identity(self):
        jobs = self.make_peak_jobs()
        (shifted, moved), _, _ = self.shift(jobs, slack_factor=1.25, margin=1.25)
        assert moved == 0
        assert shifted == list(jobs)

    def test_deterministic_and_canonically_ordered(self):
        jobs = self.make_peak_jobs()
        (first, moved_a), _, _ = self.shift(jobs)
        (second, moved_b), _, _ = self.shift(jobs)
        assert first == second
        assert moved_a == moved_b
        keys = [(job.submit_time_s, job.job_id) for job in first]
        assert keys == sorted(keys)

    def test_shifted_campaign_costs_less(self):
        jobs = self.make_peak_jobs()
        (shifted, moved), signals, _ = self.shift(jobs)
        assert moved > 0
        base = run(jobs, signals=signals)
        better = run(shifted, signals=signals)
        assert better.metrics.cost < base.metrics.cost
