"""The session state machine: coalescing, backpressure, snapshots, faults.

The headline pin lives here: the sequence of admitted requests alone
determines every plan.  However a client chunks its stream, the
coalesced windows -- and therefore the plan documents -- are
bit-identical to each other and to the equivalent one-shot
:class:`~repro.core.allocator.ProactiveAllocator` calls.
"""

from __future__ import annotations

import json

import pytest

from repro.common.errors import BackpressureError, SchemaError
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.faults.spec import FaultSpec
from repro.obs.registry import MetricsRegistry
from repro.service import schema
from repro.service.session import Session, SessionConfig

CLASSES = ("cpu", "mem", "io")


def requests(n, start=0):
    return [
        VMRequest(f"vm{start + i}", CLASSES[(start + i) % len(CLASSES)])
        for i in range(n)
    ]


def plan_bytes(records):
    return json.dumps(
        [record.to_document() for record in records], indent=2, sort_keys=True
    )


def new_session(database, registry=None, **overrides):
    config = SessionConfig(**{"n_servers": 4, "coalesce": 4, **overrides})
    return Session("sess-t", config, database, registry=registry)


class TestSessionConfig:
    def test_defaults_validate(self):
        config = SessionConfig()
        assert config.coalesce == 8
        assert config.max_queue == 1024

    def test_bad_alpha_uses_shared_parser_message(self):
        with pytest.raises(ValueError, match=r"alpha must be within \[0, 1\]"):
            SessionConfig(alpha=1.5)

    def test_coalesce_may_not_exceed_max_queue(self):
        with pytest.raises(ValueError, match="must not exceed max_queue"):
            SessionConfig(coalesce=16, max_queue=8)

    def test_unknown_document_keys_rejected(self):
        with pytest.raises(SchemaError, match=r"unknown keys \['servers'\]"):
            SessionConfig.from_document({"servers": 4})

    def test_non_boolean_strict_qos_rejected(self):
        with pytest.raises(SchemaError, match="'strict_qos' must be a boolean"):
            SessionConfig.from_document({"strict_qos": "yes"})

    def test_document_round_trip(self):
        config = SessionConfig(n_servers=2, alpha=1.0, coalesce=3, max_queue=16)
        document = config.to_document()
        assert document["schema_version"] == "1"
        assert SessionConfig.from_document(document) == config


class TestAdmission:
    def test_admit_below_window_runs_nothing(self, database):
        session = new_session(database)
        assert session.admit(requests(3)) == 3
        assert session.queue_depth == 3
        assert not session.window_ready()
        assert session.run_ready_batches() == []

    def test_window_fills_and_allocates(self, database):
        session = new_session(database)
        session.admit(requests(4))
        assert session.window_ready()
        records = session.run_ready_batches()
        assert len(records) == 1
        assert records[0].plan is not None
        assert records[0].vm_ids == tuple(f"vm{i}" for i in range(4))
        assert session.queue_depth == 0

    def test_flush_allocates_partial_tail(self, database):
        session = new_session(database)
        session.admit(requests(6))
        records = session.flush()
        assert [len(record.vm_ids) for record in records] == [4, 2]
        assert session.queue_depth == 0

    def test_empty_admission_rejected(self, database):
        with pytest.raises(SchemaError, match="must not be empty"):
            new_session(database).admit([])

    def test_duplicate_vm_id_rejected_atomically(self, database):
        session = new_session(database)
        session.admit(requests(2))
        with pytest.raises(SchemaError, match="'vm1' was already admitted"):
            session.admit([VMRequest("vm9", "cpu"), VMRequest("vm1", "cpu")])
        # All-or-nothing: the fresh vm9 was not admitted either.
        assert session.queue_depth == 2
        session.admit([VMRequest("vm9", "cpu")])

    def test_backpressure_rejects_whole_call(self, database):
        session = new_session(database, coalesce=4, max_queue=4)
        session.admit(requests(3))
        with pytest.raises(BackpressureError, match="admission queue is full"):
            session.admit(requests(2, start=3))
        assert session.queue_depth == 3

    def test_metrics_recorded(self, database):
        registry = MetricsRegistry()
        session = new_session(database, registry=registry)
        session.admit(requests(4))
        session.run_ready_batches()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["service.requests.admitted"] == 4
        assert snapshot["counters"]["service.batches"] == 1
        gauge = snapshot["gauges"]['service.queue_depth{session="sess-t"}']
        assert gauge["value"] == 0
        assert gauge["max"] == 4


class TestCoalescingDeterminism:
    TOTAL = 12

    def run_chunked(self, database, chunks):
        session = new_session(database, n_servers=6)
        start = 0
        for chunk in chunks:
            session.admit(requests(chunk, start=start))
            session.run_ready_batches()
            start += chunk
        session.flush()
        return session

    def test_plans_identical_across_chunkings(self, database):
        baselines = self.run_chunked(database, [self.TOTAL])
        one_by_one = self.run_chunked(database, [1] * self.TOTAL)
        uneven = self.run_chunked(database, [5, 1, 3, 3])
        assert (
            plan_bytes(baselines.batches)
            == plan_bytes(one_by_one.batches)
            == plan_bytes(uneven.batches)
        )

    def test_windows_match_one_shot_allocator_calls(self, database):
        from dataclasses import replace

        session = self.run_chunked(database, [self.TOTAL])
        allocator = ProactiveAllocator(database, alpha=session.config.alpha)
        order = [f"s{i}" for i in range(6)]
        servers = {server_id: ServerState(server_id) for server_id in order}
        stream = requests(self.TOTAL)
        for record in session.batches:
            window = stream[: len(record.vm_ids)]
            stream = stream[len(record.vm_ids):]
            plan = allocator.allocate(window, [servers[s] for s in order])
            assert schema.plan_document(plan) == schema.plan_document(record.plan)
            for assignment in plan.assignments:
                servers[assignment.server_id] = replace(
                    servers[assignment.server_id],
                    allocated=assignment.combined_key,
                )


class TestSharedPartitionFamilies:
    def test_two_sessions_enumerate_a_mix_once(self, database, type_partitions_calls):
        # Each session owns its allocator; the partition family of a mix
        # is memoized process-wide, so the second session reuses it.
        documents = []
        for session_id in ("sess-a", "sess-b"):
            session = Session(session_id, SessionConfig(n_servers=4, coalesce=4), database)
            session.admit(requests(4))
            documents.append(plan_bytes(session.flush()))
        assert type_partitions_calls == [((2, 1, 1), database.grid_bounds)]
        assert documents[0] == documents[1]


class TestSnapshotRestore:
    def test_state_document_round_trips(self, database):
        session = new_session(database)
        session.admit(requests(6))
        session.run_ready_batches()
        snapshot = session.state_document()
        assert snapshot["schema_version"] == "1"
        restored = new_session(database)
        restored.restore(snapshot)
        assert restored.state_document() == snapshot

    def test_restored_session_continues_identically(self, database):
        # Stream the same 8 requests through an uninterrupted session
        # and through one snapshotted/restored midway; every subsequent
        # plan must be bit-identical.
        straight = new_session(database)
        straight.admit(requests(8))
        straight.flush()

        first_half = new_session(database)
        first_half.admit(requests(4))
        first_half.run_ready_batches()
        snapshot = first_half.state_document()

        resumed = new_session(database)
        resumed.restore(snapshot)
        resumed.admit(requests(4, start=4))
        resumed.flush()

        # Batch history is not transported; the resumed session's
        # batches continue the index sequence.
        assert [record.index for record in resumed.batches] == [1]
        assert plan_bytes(resumed.batches) == plan_bytes(straight.batches[1:])

    def test_restore_validates_before_committing(self, database):
        session = new_session(database)
        session.admit(requests(4))
        session.run_ready_batches()
        before = session.state_document()
        broken = json.loads(json.dumps(before))
        broken["servers"][0]["allocated"] = {"ncpu": 1}  # missing nmem/nio
        with pytest.raises(SchemaError, match="nmem"):
            session.restore(broken)
        assert session.state_document() == before

    @pytest.mark.parametrize(
        "field, value",
        [("admitted_total", "many"), ("next_ordinal", None), ("batches_completed", 1.5)],
    )
    def test_bad_counter_leaves_state_untouched(self, database, field, value):
        session = new_session(database)
        session.admit(requests(6))
        session.run_ready_batches()
        before = session.state_document()
        other = new_session(database, n_servers=3, coalesce=2)
        broken = other.state_document()
        broken[field] = value
        with pytest.raises(SchemaError, match=field):
            session.restore(broken)
        assert session.state_document() == before

    def test_restore_rejects_server_count_mismatch(self, database):
        session = new_session(database)
        snapshot = session.state_document()
        snapshot["servers"] = snapshot["servers"][:2]
        with pytest.raises(SchemaError, match="n_servers"):
            new_session(database).restore(snapshot)


class TestFaults:
    CRASH0 = FaultSpec.from_dict(
        {"events": [{"kind": "server_crash", "server": 0, "time_s": 5.0}]}
    )

    def placed_session(self, database):
        session = new_session(database, n_servers=2)
        session.admit(requests(4))
        session.run_ready_batches()
        assert session.queue_depth == 0
        return session

    def test_crash_evicts_and_requeues_fifo(self, database):
        session = self.placed_session(database)
        records = session.apply_faults(self.CRASH0)
        assert len(records) == 1
        assert records[0].kind == "server_crash"
        assert records[0].applied
        evicted = records[0].vm_ids
        assert session.queue_depth == len(evicted)
        # Failed servers take no further placements: the re-flush puts
        # every evicted VM on the surviving server.
        replanned = session.flush()
        for record in replanned:
            if record.plan is None:
                continue
            assert all(a.server_id != "s0" for a in record.plan.assignments)

    def test_double_crash_is_a_recorded_noop(self, database):
        session = self.placed_session(database)
        session.apply_faults(self.CRASH0)
        second = session.apply_faults(self.CRASH0)
        assert second[0].applied is False
        assert second[0].detail == "server already failed"

    def test_recover_restores_eligibility(self, database):
        session = self.placed_session(database)
        session.apply_faults(self.CRASH0)
        records = session.apply_faults(
            FaultSpec.from_dict(
                {"events": [{"kind": "server_recover", "server": 0, "time_s": 9.0}]}
            )
        )
        assert records[0].applied
        assert session.info_document()["failed_servers"] == []

    def test_vm_abort_requeues_one_vm(self, database):
        session = self.placed_session(database)
        target = next(iter(session.state_document()["placements"]))["vm_id"]
        records = session.apply_faults(
            FaultSpec.from_dict(
                {"events": [{"kind": "vm_abort", "vm": target, "time_s": 3.0}]}
            )
        )
        assert records[0].vm_ids == (target,)
        assert session.queue_depth == 1

    def test_slowdown_is_inert_and_says_why(self, database):
        session = self.placed_session(database)
        records = session.apply_faults(
            FaultSpec.from_dict(
                {
                    "events": [
                        {
                            "kind": "slowdown",
                            "server": 1,
                            "time_s": 1.0,
                            "duration_s": 10.0,
                            "factor": 2.0,
                        }
                    ]
                }
            )
        )
        assert all(record.applied is False for record in records)
        assert "no execution clock" in records[0].detail

    def test_fault_log_accumulates(self, database):
        session = self.placed_session(database)
        session.apply_faults(self.CRASH0)
        session.apply_faults(self.CRASH0)
        assert len(session.fault_log) == 2
