"""Tests for bounded (ring + spill) chronicles and spill replay."""

import json
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.datacenter as datacenter
from repro.common.errors import SimulationError
from repro.sim.chronicle import (
    SPILL_BATCH_LINES,
    Chronicle,
    ChronicleSpill,
    Interval,
    encode_interval,
)
from repro.strategies import FirstFitStrategy
from repro.testbed.benchmarks import WorkloadClass
from repro.workloads.assignment import PreparedJob
from repro.workloads.qos import QoSPolicy
from tests.oracles.chronicle import iter_all, iter_spilled, vm_execution_time_s, vm_intervals


def fill(chronicle, n, vms=("a",)):
    for k in range(n):
        mix = (1, 0, 0) if vms else (0, 0, 0)
        chronicle.record(10.0 * k, 10.0 * (k + 1), mix, 100.0 + k, list(vms))


class TestBoundedChronicle:
    def test_capacity_bounds_residency(self):
        chronicle = Chronicle("s0", capacity=3)
        fill(chronicle, 10)
        assert len(chronicle) == 3
        assert chronicle.n_recorded == 10
        assert chronicle.n_evicted == 7
        # The resident window is the newest three intervals.
        assert [i.t0_s for i in chronicle] == [70.0, 80.0, 90.0]

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError, match="capacity"):
            Chronicle("s0", capacity=0)

    def test_energy_replays_across_eviction(self, tmp_path):
        def busy_then_idle(chronicle):
            for k in range(8):
                vms = ["a"] if k % 2 else []  # idle intervals carry no VMs
                chronicle.record(10.0 * k, 10.0 * (k + 1), (len(vms), 0, 0), 100.0 / 3 + k, vms)

        unbounded = Chronicle("s0")
        busy_then_idle(unbounded)
        with ChronicleSpill(str(tmp_path / "spill.jsonl")) as spill:
            bounded = Chronicle("s0", capacity=2, spill=spill)
            busy_then_idle(bounded)
        # The spill round-trips every float, so the replayed energies
        # (total, busy, idle) are the unbounded log's, exactly.
        for select in (lambda i: True, lambda i: i.vm_ids, lambda i: not i.vm_ids):
            assert sum(i.energy_j for i in iter_all(bounded) if select(i)) == sum(
                i.energy_j for i in iter_all(unbounded) if select(i)
            )

    def test_residency_replay_matches_unbounded(self, tmp_path):
        # Residency queries replay spill + residents and must return the
        # unbounded log's exact float.
        unbounded = Chronicle("s0")
        fill(unbounded, 8)
        with ChronicleSpill(str(tmp_path / "spill.jsonl")) as spill:
            bounded = Chronicle("s0", capacity=2, spill=spill)
            fill(bounded, 8)
        assert vm_execution_time_s(bounded, "a") == vm_execution_time_s(unbounded, "a")
        with pytest.raises(KeyError, match="never appeared"):
            vm_execution_time_s(bounded, "ghost")

    def test_residency_without_eviction_needs_no_spill(self):
        chronicle = Chronicle("s0", capacity=8)
        fill(chronicle, 3)
        assert vm_execution_time_s(chronicle, "a") == pytest.approx(30.0)
        with pytest.raises(KeyError, match="never appeared"):
            vm_execution_time_s(chronicle, "ghost")

    def test_eviction_without_spill_blocks_interval_audit(self):
        chronicle = Chronicle("s0", capacity=2)
        fill(chronicle, 5)
        with pytest.raises(SimulationError, match="evicted without a spill"):
            list(iter_all(chronicle))
        # Residency is an interval-level query too.
        with pytest.raises(SimulationError, match="evicted without a spill"):
            vm_execution_time_s(chronicle, "a")


class TestChronicleSpill:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        with ChronicleSpill(path) as spill:
            a = Chronicle("s0000", capacity=1, spill=spill)
            b = Chronicle("s0001", capacity=1, spill=spill)
            fill(a, 4)
            fill(b, 2, vms=())
            assert spill.n_written == 3 + 1
        rows = list(iter_spilled(path))
        assert [(server, i.t0_s) for server, i in rows] == [
            ("s0000", 0.0),
            ("s0000", 10.0),
            ("s0000", 20.0),
            ("s0001", 0.0),
        ]
        only_b = list(iter_spilled(path, "s0001"))
        assert len(only_b) == 1 and only_b[0][1].vm_ids == ()

    def test_iter_all_replays_spill_then_residents(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        with ChronicleSpill(path) as spill:
            chronicle = Chronicle("s0", capacity=2, spill=spill)
            fill(chronicle, 6)
        replayed = list(iter_all(chronicle))
        assert [i.t0_s for i in replayed] == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
        # Replay reconstructs the exact interval values.
        assert replayed[0].power_w == 100.0
        assert replayed[0].vm_ids == ("a",)
        assert vm_intervals(chronicle, "a") == replayed

    def test_pickle_drops_writer_keeps_path(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        with ChronicleSpill(path) as spill:
            chronicle = Chronicle("s0", capacity=1, spill=spill)
            fill(chronicle, 3)
        clone = pickle.loads(pickle.dumps(chronicle))
        assert clone.spill_path == path
        assert list(iter_all(clone)) == list(iter_all(chronicle))


#: (t0, t1, mix, power, vm ids) per record: busy and idle spans, a
#: non-round power, and ids given as a list and as a tuple.
RECORDS = [
    (0.0, 1.5, (1, 0, 0), 120.25, ["j1-0"]),
    (1.5, 2.0, (1, 1, 0), 180.0, ("j1-0", "j2-0")),
    (2.0, 3.0, (0, 0, 0), 125.0, []),
    (3.0, 7.25, (0, 1, 1), 1 / 3, ["j2-0", "j3-0"]),
    (7.25, 9.0, (0, 0, 1), 150.5, ("j3-0",)),
]


def expected_intervals():
    return [
        Interval(t0_s=t0, t1_s=t1, mix=mix, power_w=power, vm_ids=tuple(ids))
        for t0, t1, mix, power, ids in RECORDS
    ]


class TestRecordedRows:
    """Whatever the ring keeps, every reader sees the recorded
    arguments as :class:`Interval`s."""

    @pytest.fixture(params=["unbounded", "roomy-ring", "ring-with-spill"])
    def recorded(self, request, tmp_path):
        if request.param == "ring-with-spill":
            with ChronicleSpill(str(tmp_path / "spill.jsonl")) as spill:
                chronicle = Chronicle("s0", capacity=2, spill=spill)
                for record in RECORDS:
                    chronicle.record(*record)
            return chronicle, 2
        capacity = None if request.param == "unbounded" else len(RECORDS)
        chronicle = Chronicle("s0", capacity=capacity)
        for record in RECORDS:
            chronicle.record(*record)
        return chronicle, len(RECORDS)

    @staticmethod
    def assert_intervals(got, expected):
        assert all(type(interval) is Interval for interval in got)
        assert got == expected

    def test_iter_and_len_are_the_resident_intervals(self, recorded):
        chronicle, resident = recorded
        assert len(chronicle) == resident
        self.assert_intervals(list(chronicle), expected_intervals()[-resident:])

    def test_iter_all_is_every_interval(self, recorded):
        chronicle, _ = recorded
        self.assert_intervals(list(iter_all(chronicle)), expected_intervals())
        assert chronicle.n_recorded == len(RECORDS)

    def test_vm_intervals(self, recorded):
        chronicle, _ = recorded
        for vm_id in ("j1-0", "j2-0", "j3-0"):
            self.assert_intervals(
                vm_intervals(chronicle, vm_id),
                [i for i in expected_intervals() if vm_id in i.vm_ids],
            )
        assert vm_execution_time_s(chronicle, "j2-0") == 0.5 + 4.25

    def test_pickled_chronicle_reads_the_same(self, recorded):
        chronicle, resident = recorded
        clone = pickle.loads(pickle.dumps(chronicle))
        assert len(clone) == resident
        self.assert_intervals(list(clone), expected_intervals()[-resident:])
        self.assert_intervals(list(iter_all(clone)), expected_intervals())
        self.assert_intervals(
            vm_intervals(clone, "j3-0"), expected_intervals()[-2:]
        )


def reference_line(server_id, interval):
    """The spill line as the generic JSON encoder spells it."""
    record = {
        "server": server_id,
        "t0": interval.t0_s,
        "t1": interval.t1_s,
        "mix": list(interval.mix),
        "power": interval.power_w,
        "vms": list(interval.vm_ids),
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


class ReferenceSpill:
    """An unbuffered sink that encodes every line with json.dumps."""

    path = None

    def __init__(self):
        self.lines = []

    def write(self, server_id, interval):
        self.lines.append(reference_line(server_id, interval))


IDS = st.one_of(
    st.sampled_from(
        ["", '"', "\\", 'a"b\\c', "\x00\x1f\x7f", "caf\u00e9", "\u2603", "\ud800"]
    ),
    st.text(max_size=8),
)
FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e16, 1 / 3]
        + [math.nan, math.inf, -math.inf]
    ),
    st.floats(),
)
INTERVALS = st.builds(
    Interval,
    t0_s=FLOATS,
    t1_s=FLOATS,
    mix=st.tuples(*[st.integers(0, 64)] * 3),
    power_w=FLOATS,
    vm_ids=st.lists(IDS, max_size=4).map(tuple),
)


class TestSpillEncoding:
    @settings(max_examples=300)
    @given(server_id=IDS, interval=INTERVALS)
    def test_line_is_the_json_dumps_bytes(self, server_id, interval):
        assert encode_interval(server_id, interval) == reference_line(server_id, interval)

    @pytest.mark.parametrize(
        "interval",
        [
            Interval(0.0, math.inf, (1, 0, 0), 100.0, ("a",)),
            Interval(0.0, 1.0, (0, 0, 0), math.nan, ()),
            Interval(-math.inf, 1.0, (0, 1, 0), 50.0, ("b", "c")),
            Interval(0, 10, (1, 0, 0), 100, ("a",)),  # ints, not floats
        ],
    )
    def test_non_finite_and_non_float_operands_fall_back(self, interval):
        assert encode_interval("s0", interval) == reference_line("s0", interval)

    def test_shared_spill_matches_unbuffered_reference_in_order(self, tmp_path):
        # Three chronicles interleave their evictions into one spill for
        # more than two buffers' worth of lines, ending mid-buffer, so
        # both the batch writes and the final flush on close are needed.
        path = str(tmp_path / "spill.jsonl")
        reference = ReferenceSpill()
        servers = ("s0000", 'q"uote', "\u00e9t\u00e9")
        n_rounds = SPILL_BATCH_LINES
        with ChronicleSpill(path) as spill:
            pairs = [
                (
                    Chronicle(sid, capacity=1, spill=spill),
                    Chronicle(sid, capacity=1, spill=reference),
                )
                for sid in servers
            ]
            for k in range(n_rounds):
                vm_ids = [f"vm{k}", "x\\y"][: k % 3]
                for j, pair in enumerate(pairs):
                    for chronicle in pair:
                        chronicle.record(
                            k / 3, (k + 1) / 3, (j, k % 5, 1), 100.0 + k / 7, vm_ids
                        )
        expected = reference.lines
        assert len(expected) == len(servers) * (n_rounds - 1)
        assert len(expected) > 2 * SPILL_BATCH_LINES
        assert len(expected) % SPILL_BATCH_LINES
        assert spill.n_written == len(expected)
        with open(path, encoding="utf-8") as handle:
            assert handle.readlines() == expected


class TestCorruptSpill:
    """A damaged spill file is a typed error naming the path and line."""

    @staticmethod
    def corrupt(tmp_path, line_no, text):
        """A three-line spill file with line ``line_no`` replaced."""
        path = str(tmp_path / "spill.jsonl")
        with ChronicleSpill(path) as spill:
            fill(Chronicle("s0", capacity=1, spill=spill), 4)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == 3
        lines[line_no - 1] = text
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        return path

    def test_truncated_last_line(self, tmp_path):
        path = self.corrupt(tmp_path, 3, '{"server":"s0","t0":20.0,"t1":3')
        with pytest.raises(SimulationError, match=re.escape(f"{path}, line 3: corrupt")):
            list(iter_spilled(path))

    def test_line_with_a_missing_key(self, tmp_path):
        path = self.corrupt(
            tmp_path, 2, '{"server":"s0","t0":0.0,"t1":1.0,"mix":[1,0,0],"vms":[]}\n'
        )
        with pytest.raises(SimulationError, match=r"line 2: .*KeyError: 'power'"):
            list(iter_spilled(path, "s0"))

    def test_non_json_line(self, tmp_path):
        path = self.corrupt(tmp_path, 1, "not json at all\n")
        with pytest.raises(SimulationError, match=re.escape(f"{path}, line 1: corrupt")):
            list(iter_spilled(path))


class TestSpillLifecycle:
    def test_failed_run_closes_spill_with_every_line_readable(self, tmp_path, monkeypatch):
        opened = []

        class RecordingSpill(ChronicleSpill):
            def __init__(self, path):
                super().__init__(path)
                opened.append(self)

        class RejectLast(FirstFitStrategy):
            def place(self, vms, servers):
                if any(vm.vm_id.startswith("j5-") for vm in vms):
                    return None
                return super().place(vms, servers)

        monkeypatch.setattr(datacenter, "ChronicleSpill", RecordingSpill)
        path = str(tmp_path / "spill.jsonl")
        config = datacenter.DatacenterConfig(
            n_servers=1,
            record_chronicles=True,
            chronicle_capacity=1,
            chronicle_spill_path=path,
        )
        jobs = [
            PreparedJob(
                job_id=i,
                submit_time_s=700.0 * (i - 1),
                workload_class=WorkloadClass.CPU,
                n_vms=2,
                burst_id=i,
            )
            for i in range(1, 6)
        ]
        with pytest.raises(SimulationError, match="never be placed"):
            datacenter.DatacenterSimulator(config).run(
                jobs, RejectLast(2), QoSPolicy.unlimited()
            )
        [spill] = opened
        with pytest.raises(SimulationError, match="is closed"):
            spill.write("s0000", Interval(0.0, 1.0, (0, 0, 0), 1.0, ()))
        rows = list(iter_spilled(path))
        assert 0 < len(rows) == spill.n_written
        assert all(server == "s0000" for server, _ in rows)
