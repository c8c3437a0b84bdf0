"""Unit tests for the declarative fault-spec layer.

Validation must fail at parse time with actionable messages (the CLI
turns :class:`FaultSpecError` into an exit-2 usage error), and
materialization must be a pure function of ``(spec, n_servers)``.
"""

import json

import pytest

from repro.common.errors import FaultSpecError
from repro.faults import (
    FaultAction,
    FaultEvent,
    FaultKind,
    FaultSpec,
    RandomFaults,
    WorkerFaultPlan,
    materialize,
    random_crash_spec,
)


def crash(t=10.0, server=0):
    return FaultEvent(kind=FaultKind.SERVER_CRASH, time_s=t, server=server)


class TestFaultEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultSpecError, match="time_s must be >= 0"):
            FaultEvent(kind=FaultKind.SERVER_CRASH, time_s=-1.0, server=0)

    @pytest.mark.parametrize(
        "kind",
        [FaultKind.SERVER_CRASH, FaultKind.SERVER_RECOVER, FaultKind.SLOWDOWN],
    )
    def test_server_kinds_require_server(self, kind):
        with pytest.raises(FaultSpecError, match="'server' must be a server index"):
            FaultEvent(kind=kind, time_s=1.0, duration_s=5.0)

    def test_negative_server_rejected(self):
        with pytest.raises(FaultSpecError, match="server index >= 0"):
            FaultEvent(kind=FaultKind.SERVER_CRASH, time_s=1.0, server=-2)

    def test_abort_requires_vm(self):
        with pytest.raises(FaultSpecError, match="'vm' must name the VM"):
            FaultEvent(kind=FaultKind.VM_ABORT, time_s=1.0)

    def test_slowdown_requires_positive_duration(self):
        with pytest.raises(FaultSpecError, match="duration_s must be > 0"):
            FaultEvent(kind=FaultKind.SLOWDOWN, time_s=1.0, server=0, factor=2.0)

    def test_slowdown_factor_below_one_rejected(self):
        with pytest.raises(FaultSpecError, match="factor must be >= 1"):
            FaultEvent(
                kind=FaultKind.SLOWDOWN, time_s=1.0, server=0, duration_s=5.0, factor=0.5
            )

    def test_worker_failure_requires_task(self):
        with pytest.raises(FaultSpecError, match="'task' must be a task index"):
            FaultEvent(kind=FaultKind.WORKER_FAILURE)

    def test_worker_failure_times_at_least_one(self):
        with pytest.raises(FaultSpecError, match="'times' must be >= 1"):
            FaultEvent(kind=FaultKind.WORKER_FAILURE, task=0, times=0)

    def test_kind_accepts_string_value(self):
        event = FaultEvent(kind="server_crash", time_s=1.0, server=0)
        assert event.kind is FaultKind.SERVER_CRASH


class TestRandomFaultsValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(FaultSpecError, match="crash_rate_per_1000s must be >= 0"):
            RandomFaults(crash_rate_per_1000s=-1.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(FaultSpecError, match="window_t0_s < window_t1_s"):
            RandomFaults(crash_rate_per_1000s=1.0, window_t0_s=100.0, window_t1_s=50.0)

    def test_nonpositive_recovery_rejected(self):
        with pytest.raises(FaultSpecError, match="recover_after_s must be > 0"):
            RandomFaults(crash_rate_per_1000s=1.0, recover_after_s=0.0)


class TestFaultSpec:
    def test_empty_spec_is_empty(self):
        assert FaultSpec().is_empty()

    def test_zero_rate_random_is_empty(self):
        spec = FaultSpec(random=RandomFaults(crash_rate_per_1000s=0.0))
        assert spec.is_empty()

    def test_events_make_it_nonempty(self):
        assert not FaultSpec(events=(crash(),)).is_empty()

    def test_negative_seed_rejected(self):
        with pytest.raises(FaultSpecError, match="seed must be >= 0"):
            FaultSpec(seed=-1)

    def test_worker_failures_sum_per_task(self):
        spec = FaultSpec(
            events=(
                FaultEvent(kind=FaultKind.WORKER_FAILURE, task=3, times=2),
                FaultEvent(kind=FaultKind.WORKER_FAILURE, task=3, times=1),
                FaultEvent(kind=FaultKind.WORKER_FAILURE, task=0),
            )
        )
        assert dict(spec.worker_failures) == {3: 3, 0: 1}

    def test_sim_events_exclude_worker_failures(self):
        spec = FaultSpec(
            events=(crash(), FaultEvent(kind=FaultKind.WORKER_FAILURE, task=0))
        )
        assert [e.kind for e in spec.sim_events] == [FaultKind.SERVER_CRASH]


class TestFromDict:
    def test_round_trip(self):
        spec = FaultSpec(
            events=(
                crash(),
                FaultEvent(
                    kind=FaultKind.SLOWDOWN, time_s=5.0, server=1, duration_s=10.0, factor=2.0
                ),
                FaultEvent(kind=FaultKind.VM_ABORT, time_s=20.0, vm="j1-0"),
                FaultEvent(kind=FaultKind.WORKER_FAILURE, task=2, times=3),
            ),
            random=RandomFaults(crash_rate_per_1000s=1.5, recover_after_s=60.0),
            seed=7,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = random_crash_spec(seed=3, crash_rate_per_1000s=2.0)
        assert FaultSpec.from_json(json.dumps(spec.to_dict())) == spec

    def test_non_object_rejected(self):
        with pytest.raises(FaultSpecError, match="must be a JSON object"):
            FaultSpec.from_dict([1, 2, 3])

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(FaultSpecError, match=r"unknown fault spec keys: \['evnts'\]"):
            FaultSpec.from_dict({"evnts": []})

    def test_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind 'meteor'"):
            FaultSpec.from_dict({"events": [{"kind": "meteor"}]})

    def test_unknown_event_keys_rejected(self):
        with pytest.raises(FaultSpecError, match=r"events\[0\]: unknown keys \['when'\]"):
            FaultSpec.from_dict(
                {"events": [{"kind": "server_crash", "server": 0, "when": 5}]}
            )

    def test_event_validation_errors_carry_index(self):
        with pytest.raises(FaultSpecError, match=r"events\[1\].*time_s must be >= 0"):
            FaultSpec.from_dict(
                {
                    "events": [
                        {"kind": "server_crash", "server": 0},
                        {"kind": "server_crash", "server": 0, "time_s": -5},
                    ]
                }
            )

    def test_event_must_be_an_object(self):
        with pytest.raises(FaultSpecError, match=r"events\[0\] must be an object"):
            FaultSpec.from_dict({"events": [5]})

    def test_uncoercible_field_reported_as_bad_value(self):
        with pytest.raises(FaultSpecError, match=r"events\[0\]: bad field value"):
            FaultSpec.from_dict(
                {"events": [{"kind": "server_crash", "server": 0, "time_s": "soon"}]}
            )

    @pytest.mark.parametrize(
        "event, where",
        [
            ({"kind": "worker_failure", "task": 0, "times": 1.9}, "times must be an integer"),
            ({"kind": "worker_failure", "task": True}, "task must be an integer or null"),
            ({"kind": "server_crash", "server": True}, "server must be an integer or null"),
            ({"kind": "server_crash", "server": 1.5}, "server must be an integer or null"),
            ({"kind": "server_crash", "server": 0, "time_s": float("nan")},
             "time_s must be a finite number"),
            ({"kind": "server_crash", "server": 0, "time_s": "7"},
             "time_s must be a finite number"),
            ({"kind": "server_crash", "server": 0, "time_s": 10**400},
             "time_s must be a finite number"),
            ({"kind": "slowdown", "server": 0, "duration_s": 5.0, "factor": float("inf")},
             "factor must be a finite number"),
            ({"kind": "vm_abort", "vm": 7}, "vm must be a string or null"),
        ],
    )
    def test_untyped_event_field_names_it(self, event, where):
        with pytest.raises(FaultSpecError) as raised:
            FaultSpec.from_dict({"events": [{"kind": "server_crash", "server": 0}, event]})
        assert str(raised.value).startswith(f"events[1]: bad field value: events[1].{where}")

    @pytest.mark.parametrize(
        "random, where",
        [
            ({"crash_rate_per_1000s": float("nan")}, "crash_rate_per_1000s must be a finite number,"),
            ({"crash_rate_per_1000s": None}, "crash_rate_per_1000s must be a finite number,"),
            ({"crash_rate_per_1000s": 1.0, "window_t1_s": False}, "window_t1_s must be a finite"),
            ({"crash_rate_per_1000s": 1.0, "recover_after_s": "1"},
             "recover_after_s must be a finite number or null"),
        ],
    )
    def test_untyped_random_field_names_it(self, random, where):
        with pytest.raises(FaultSpecError) as raised:
            FaultSpec.from_dict({"random": random})
        assert str(raised.value).startswith(f"random: bad field value: random.{where}")

    def test_integral_floats_still_read_as_floats(self):
        spec = FaultSpec.from_dict(
            {"events": [{"kind": "server_crash", "server": 0, "time_s": 10}],
             "random": {"crash_rate_per_1000s": 1, "recover_after_s": None}}
        )
        assert spec.events[0].time_s == 10.0 and type(spec.events[0].time_s) is float
        assert type(spec.random.crash_rate_per_1000s) is float

    def test_random_must_be_an_object(self):
        with pytest.raises(FaultSpecError, match="'random' must be an object"):
            FaultSpec.from_dict({"random": "often"})

    def test_events_must_be_a_list(self):
        with pytest.raises(FaultSpecError, match="'events' must be a list"):
            FaultSpec.from_dict({"events": "server_crash"})

    def test_bool_seed_rejected(self):
        with pytest.raises(FaultSpecError, match="seed must be an integer"):
            FaultSpec.from_dict({"seed": True})

    def test_random_requires_rate(self):
        with pytest.raises(FaultSpecError, match="'crash_rate_per_1000s' is required"):
            FaultSpec.from_dict({"random": {"window_t1_s": 100.0}})

    def test_random_unknown_keys_rejected(self):
        with pytest.raises(FaultSpecError, match=r"random: unknown keys \['rate'\]"):
            FaultSpec.from_dict({"random": {"rate": 1.0}})

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultSpecError, match="not valid JSON"):
            FaultSpec.from_json("{not json")

    def test_missing_file_rejected(self):
        with pytest.raises(FaultSpecError, match="cannot read fault spec"):
            FaultSpec.from_path("/nonexistent/faults.json")

    def test_non_utf8_file_rejected_naming_the_path(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(FaultSpecError, match="is not UTF-8 text") as excinfo:
            FaultSpec.from_path(str(path))
        assert repr(str(path)) in str(excinfo.value)

    def test_from_path_reads_file(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"events": [crash().to_dict()]}))
        spec = FaultSpec.from_path(str(path))
        assert spec.events[0].kind is FaultKind.SERVER_CRASH


class TestWorkerFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not WorkerFaultPlan()

    def test_lookup(self):
        plan = WorkerFaultPlan(failures={2: 3})
        assert plan.failures_for(2) == 3
        assert plan.failures_for(0) == 0

    def test_bad_index_rejected(self):
        with pytest.raises(FaultSpecError, match="task index must be an int >= 0"):
            WorkerFaultPlan(failures={-1: 2})

    def test_bad_count_rejected(self):
        with pytest.raises(FaultSpecError, match="failure count must be an int >= 1"):
            WorkerFaultPlan(failures={0: 0})


class TestMaterialize:
    def test_deterministic(self):
        spec = random_crash_spec(
            seed=11, crash_rate_per_1000s=5.0, recover_after_s=120.0,
            extra_events=(crash(t=50.0, server=0),),
        )
        assert materialize(spec, 4) == materialize(spec, 4)

    def test_sorted_by_time(self):
        spec = random_crash_spec(seed=2, crash_rate_per_1000s=4.0, recover_after_s=30.0)
        times = [e.time_s for e in materialize(spec, 3).timeline]
        assert times == sorted(times)

    def test_simultaneous_faults_keep_declaration_order(self):
        spec = FaultSpec(
            events=(
                crash(t=10.0, server=1),
                FaultEvent(kind=FaultKind.SERVER_RECOVER, time_s=10.0, server=1),
            )
        )
        actions = [e.action for e in materialize(spec, 2).timeline]
        assert actions == [FaultAction.CRASH, FaultAction.RECOVER]

    def test_slowdown_expands_to_start_end_pair(self):
        spec = FaultSpec(
            events=(
                FaultEvent(
                    kind=FaultKind.SLOWDOWN, time_s=5.0, server=0, duration_s=10.0, factor=3.0
                ),
            )
        )
        timeline = materialize(spec, 1).timeline
        assert [e.action for e in timeline] == [
            FaultAction.SLOWDOWN_START,
            FaultAction.SLOWDOWN_END,
        ]
        assert timeline[0].factor == pytest.approx(3.0)
        assert timeline[1].time_s == pytest.approx(15.0)

    def test_out_of_range_server_rejected(self):
        spec = FaultSpec(events=(crash(server=5),))
        with pytest.raises(FaultSpecError, match="targets server 5 but the cluster has 2"):
            materialize(spec, 2)

    def test_nonpositive_cluster_rejected(self):
        with pytest.raises(FaultSpecError, match="n_servers must be >= 1"):
            materialize(FaultSpec(), 0)

    def test_random_streams_are_per_server(self):
        # More servers must only ADD entries; existing servers' crash
        # times are a pure function of (seed, server index).
        spec = random_crash_spec(seed=9, crash_rate_per_1000s=3.0)
        small = [e for e in materialize(spec, 2).timeline]
        large = [e for e in materialize(spec, 4).timeline if e.server in (0, 1)]
        assert small == large

    def test_zero_rate_yields_empty_timeline(self):
        spec = random_crash_spec(seed=1, crash_rate_per_1000s=0.0)
        assert materialize(spec, 8).timeline == ()

    def test_no_recovery_means_one_crash_per_server(self):
        spec = random_crash_spec(
            seed=4, crash_rate_per_1000s=50.0, recover_after_s=None
        )
        timeline = materialize(spec, 3).timeline
        assert all(e.action is FaultAction.CRASH for e in timeline)
        crashed = [e.server for e in timeline]
        assert len(crashed) == len(set(crashed)) <= 3

    def test_crashes_within_window(self):
        spec = random_crash_spec(
            seed=6, crash_rate_per_1000s=20.0, window_s=(100.0, 500.0),
            recover_after_s=10.0,
        )
        crashes = [
            e for e in materialize(spec, 2).timeline if e.action is FaultAction.CRASH
        ]
        assert crashes, "rate 20/1000s over 400 s across 2 servers should crash"
        assert all(100.0 < e.time_s < 500.0 for e in crashes)


#: The fields each kind carries on the wire (besides ``kind``); every
#: FaultEvent field must be applicable to some kind.
APPLICABLE = {
    FaultKind.SERVER_CRASH: {"time_s", "server"},
    FaultKind.SERVER_RECOVER: {"time_s", "server"},
    FaultKind.VM_ABORT: {"time_s", "vm"},
    FaultKind.SLOWDOWN: {"time_s", "server", "duration_s", "factor"},
    FaultKind.WORKER_FAILURE: {"time_s", "task", "times"},
}


def non_default(cls, names):
    """A distinct, valid, non-default value for each named field of
    ``cls``, chosen by its annotation."""
    import dataclasses

    values = {}
    for position, field in enumerate(dataclasses.fields(cls)):
        if field.name not in names:
            continue
        base = field.type.partition(" | ")[0]
        values[field.name] = {
            "float": 1.5 + position,
            "int": 3 + position,
            "str": f"vm-{position}",
        }[base]
        assert values[field.name] != field.default
    return values


class TestRoundTripEveryField:
    """``from_dict(to_dict(x)) == x`` with every applicable field set
    away from its default, driven by ``dataclasses.fields``: a field the
    codec drops or misreads breaks the equality."""

    def test_every_event_field_is_applicable_somewhere(self):
        import dataclasses

        names = {f.name for f in dataclasses.fields(FaultEvent)} - {"kind"}
        assert set().union(*APPLICABLE.values()) == names
        assert set(APPLICABLE) == set(FaultKind)

    @pytest.mark.parametrize("kind", list(FaultKind), ids=lambda kind: kind.value)
    def test_event_round_trips(self, kind):
        event = FaultEvent(kind=kind, **non_default(FaultEvent, APPLICABLE[kind]))
        spec = FaultSpec(events=(event,), seed=11)
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert FaultSpec.from_json(json.dumps(spec.to_dict())) == spec

    def test_random_clause_round_trips(self):
        import dataclasses

        names = {f.name for f in dataclasses.fields(RandomFaults)}
        spec = FaultSpec(random=RandomFaults(**non_default(RandomFaults, names)), seed=5)
        assert FaultSpec.from_dict(spec.to_dict()) == spec
