"""Wire-schema v1: round-trips, version gating, determinism.

Satellite contract for the schema module: every document type
round-trips losslessly (encode -> decode -> encode is the identity on
the document), every document is stamped ``schema_version: "1"`` with
the stamp as the first key, and decoders reject missing or future
versions with messages naming both sides.  The wire text of any
document is byte-for-byte ``json.dumps(..., indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import json
import math
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SchemaError
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.core.plan import AllocationPlan, AllocationProvenance
from repro.experiments.evaluation import StrategyOutcome
from repro.faults.spec import FaultRecord, FaultSpec
from repro.service import schema


@pytest.fixture(scope="module")
def plan(database):
    allocator = ProactiveAllocator(database, alpha=0.5)
    return allocator.allocate(
        [
            VMRequest("vm0", "cpu"),
            VMRequest("vm1", "mem", 4000.0),
            VMRequest("vm2", "io"),
        ],
        [ServerState("s0"), ServerState("s1")],
    )


class TestStamp:
    def test_stamp_is_first_key(self):
        document = schema.stamp({"alpha": 0.5})
        assert list(document) == ["schema_version", "alpha"]
        assert document["schema_version"] == schema.SCHEMA_VERSION == "1"

    def test_missing_version_rejected(self):
        with pytest.raises(SchemaError, match="missing 'schema_version'"):
            schema.check_version({"vm_id": "vm0"}, "vm_request")

    def test_future_version_rejected_naming_both(self):
        with pytest.raises(SchemaError) as excinfo:
            schema.check_version({"schema_version": "99"}, "plan")
        message = str(excinfo.value)
        assert "'99'" in message and "'1'" in message

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError, match="must be a JSON object"):
            schema.check_version([1, 2], "plan")


class TestVMRequestRoundTrip:
    @pytest.mark.parametrize("deadline", [None, 1200.0])
    def test_round_trip(self, deadline):
        request = VMRequest("vm-7", "mem", deadline)
        document = schema.vm_request_document(request)
        assert document["schema_version"] == "1"
        assert schema.decode_vm_request(document) == request
        assert schema.vm_request_document(schema.decode_vm_request(document)) == document

    def test_unknown_class_rejected(self):
        document = schema.vm_request_document(VMRequest("vm0", "cpu"))
        document["workload_class"] = "gpu"
        with pytest.raises(SchemaError, match="unknown workload_class 'gpu'"):
            schema.decode_vm_request(document)

    def test_non_positive_deadline_rejected(self):
        document = schema.vm_request_document(VMRequest("vm0", "cpu"))
        document["max_exec_time_s"] = 0
        with pytest.raises(SchemaError, match="must be positive or null"):
            schema.decode_vm_request(document)


class TestPlanRoundTrip:
    def test_round_trip_is_document_identity(self, plan):
        document = schema.plan_document(plan)
        decoded = schema.decode_plan(document)
        assert schema.plan_document(decoded) == document

    def test_decoded_plan_matches_original(self, plan):
        decoded = schema.decode_plan(schema.plan_document(plan))
        assert decoded.assignments == plan.assignments
        assert decoded.alpha == plan.alpha
        assert decoded.score == plan.score
        assert decoded.qos_satisfied == plan.qos_satisfied
        # Derived totals are recomputed, not read back.
        assert decoded.estimated_makespan_s == plan.estimated_makespan_s
        assert decoded.estimated_energy_j == plan.estimated_energy_j
        assert decoded.n_vms == plan.n_vms

    def test_document_is_byte_deterministic(self, plan):
        first = json.dumps(schema.plan_document(plan), indent=2, sort_keys=True)
        second = json.dumps(schema.plan_document(plan), indent=2, sort_keys=True)
        assert first == second

    def test_missing_field_names_it(self, plan):
        document = schema.plan_document(plan)
        del document["alpha"]
        with pytest.raises(SchemaError, match="missing 'alpha'"):
            schema.decode_plan(document)


class _FakeResult:
    def __init__(self, outcomes, n_jobs, n_vms):
        self.outcomes = outcomes
        self.n_jobs = n_jobs
        self.n_vms = n_vms


class TestEvaluationRoundTrip:
    OUTCOMES = (
        StrategyOutcome("smaller", "PA-0.5", 900.0, 5.0e6, 2.5, 40.0, 7, 1.25),
        StrategyOutcome("larger", "FF", 1400.0, 9.0e6, 8.0, 80.0, 12, 3.5),
    )

    def test_round_trip_is_document_identity(self):
        result = _FakeResult(self.OUTCOMES, n_jobs=2, n_vms=120)
        document = schema.evaluation_document(result)
        decoded = schema.decode_evaluation(document)
        assert schema.evaluation_document(decoded) == document

    def test_decoded_outcomes_compare_equal(self):
        # wall_time_s is compare=False and not on the wire; decoded
        # outcomes still compare equal to the originals.
        document = schema.evaluation_document(
            _FakeResult(self.OUTCOMES, n_jobs=1, n_vms=60)
        )
        decoded = schema.decode_evaluation(document)
        assert decoded.outcomes == self.OUTCOMES
        assert decoded.outcomes[0].wall_time_s == 0.0
        assert decoded.n_jobs == 1
        assert decoded.n_vms == 60


class TestFaultSpecRoundTrip:
    SPEC = FaultSpec.from_dict(
        {
            "events": [
                {"kind": "server_crash", "server": 0, "time_s": 10.0},
                {"kind": "server_recover", "server": 0, "time_s": 50.0},
            ],
            "random": {
                "crash_rate_per_1000s": 1.0,
                "window_t0_s": 0.0,
                "window_t1_s": 100.0,
            },
            "seed": 7,
        }
    )

    def test_round_trip_is_document_identity(self):
        document = schema.fault_spec_document(self.SPEC)
        decoded = schema.decode_fault_spec(document)
        assert schema.fault_spec_document(decoded) == document

    def test_decoded_spec_equals_original(self):
        decoded = schema.decode_fault_spec(schema.fault_spec_document(self.SPEC))
        assert decoded == self.SPEC


class TestFaultRecordDocument:
    def test_document_shape(self):
        record = FaultRecord(
            time_s=10.0,
            kind="server_crash",
            target="s0",
            vm_ids=("vm0", "vm1"),
            detail="2 VMs re-queued",
        )
        document = schema.fault_record_document(record)
        assert document["schema_version"] == "1"
        assert document["kind"] == "server_crash"
        assert document["vm_ids"] == ["vm0", "vm1"]
        assert document["applied"] is True


class TestErrorEnvelope:
    def test_shape_and_stamp(self):
        document = schema.error_envelope("invalid_request", "alpha must be ...")
        assert document["schema_version"] == "1"
        assert document["error"] == {
            "code": "invalid_request",
            "message": "alpha must be ...",
        }

    def test_detail_keys_sorted(self):
        document = schema.error_envelope("backpressure", "full", zebra=1, apple=2)
        assert list(document["error"]["detail"]) == ["apple", "zebra"]


def reference_text(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True)


class Colour(str, Enum):
    RED = "red"
    CAFE = "caf\u00e9"


class Level(IntEnum):
    LOW = 1
    HIGH = 2**70


class Ratio(float, Enum):
    HALF = 0.5
    NONE = math.nan


TEXT = st.one_of(
    st.sampled_from(
        ["", '"', "\\", 'a"b\\c', "\x00\x1f\x7f", "a\nb\tc", "caf\u00e9", "\u2603",
         "\U0001f600", "\ud800", "x\udfffy"]
    ),
    st.text(max_size=6),
)
FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e16, 1 / 3, 1e-7, math.nan, math.inf, -math.inf]
    ),
    st.floats(),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**100), 0, -1]),
    FLOATS,
    TEXT,
    st.sampled_from([*Colour, *Level, *Ratio]),
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
    ),
    max_leaves=24,
)


class TestEncodeDocument:
    @settings(max_examples=400, derandomize=True)
    @given(document=DOCUMENTS)
    def test_text_is_the_json_dumps_text(self, document):
        assert schema.encode_document(document) == reference_text(document)

    @pytest.mark.parametrize(
        "document",
        [
            {},
            [],
            (),
            {"b": {}, "a": [], "c": ()},
            [[[]], {"k": [{}]}],
            {"z": 1, "a": {"y": [1.5, None, True], "b": False}},
            -0.0,
            math.nan,
            "caf\u00e9",
            {"vm": Colour.RED, "n": Level.HIGH, "share": Ratio.NONE},
            {1: "int key", 2: "another"},
            {0.5: "half", -1.5: "less"},
            {True: 1, False: 0},
            {None: "null key"},
        ],
    )
    def test_edge_documents(self, document):
        assert schema.encode_document(document) == reference_text(document)

    @pytest.mark.parametrize(
        "document",
        [{"a": object()}, [1, {2, 3}], {"raw": b"bytes"}, {"a": 1, 2: "b"}],
    )
    def test_unserializable_raises_the_json_dumps_error(self, document):
        with pytest.raises(TypeError) as expected:
            reference_text(document)
        with pytest.raises(TypeError) as raised:
            schema.encode_document(document)
        assert str(raised.value) == str(expected.value)

    def test_cycle_raises_the_json_dumps_error(self):
        document = {"a": []}
        document["a"].append(document)
        with pytest.raises(ValueError, match="Circular reference detected"):
            schema.encode_document(document)

    def test_layout_table_is_cleared_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(schema, "_layouts", {})
        monkeypatch.setattr(schema, "_layout_keys", 0)
        monkeypatch.setattr(schema, "_LAYOUT_KEYS_MAX", 10)
        for i in range(40):
            document = {f"k{i}": i, "shared": {"b": i, "a": [i]}}
            assert schema.encode_document(document) == reference_text(document)
            assert schema._layout_keys == sum(len(keys) for keys, _ in schema._layouts)
            assert schema._layout_keys <= 10


class TestDeclarations:
    """Each wire type is declared once and checked against its dataclass
    when the declaration is made (at import, for the real types)."""

    @staticmethod
    def declare(**options):
        from dataclasses import dataclass, field

        @dataclass(frozen=True)
        class Grown:
            name: str
            size: int
            note: str = ""
            hidden: float = field(default=0.0, compare=False)

            @property
            def twice(self) -> int:
                return 2 * self.size

        fields = {"name": schema.STRING, "size": schema.INTEGER}
        fields.update(options.pop("fields", {}))
        return schema.Wire(Grown, fields, kind="grown", **options), Grown

    def test_undeclared_field_fails_the_declaration(self):
        with pytest.raises(TypeError) as raised:
            self.declare()
        assert str(raised.value) == (
            "wire declaration of Grown: ['hidden', 'note'] neither declared nor exempt"
        )

    def test_unknown_and_derived_names_are_checked(self):
        with pytest.raises(TypeError) as raised:
            self.declare(
                fields={"note": schema.MIX, "colour": schema.STRING,
                        "size_twice": schema.DERIVED},
                exempt=("hidden",),
                renames={"ghost": "g"},
                groups={("note",): bool},
            )
        assert str(raised.value) == (
            "wire declaration of Grown: ['colour'] declared but not dataclass "
            "fields; ['size_twice'] derived but not computed; ['ghost'] renamed "
            "or grouped but not declared; ['note'] grouped with an encoder"
        )

    def test_declared_type_round_trips_with_renames_groups_and_derived(self):
        wire, Grown = self.declare(
            fields={"twice": schema.DERIVED, "note": schema.STRING},
            exempt=("hidden",),
            renames={"size": "n"},
            groups={("note",): lambda grown: grown.note},
        )
        plain = Grown("a", 3)
        assert wire.document(plain) == {
            "schema_version": "1", "name": "a", "n": 3, "twice": 6,
        }
        noted = Grown("b", 4, note="kept", hidden=9.0)
        document = wire.document(noted)
        assert document["note"] == "kept" and "hidden" not in document
        assert wire.decode(document) == noted
        assert wire.decode(document).hidden == 0.0


class TestProvenanceDecoding:
    """``search_provenance`` decodes field by field, typed by its
    declaration; unknown keys are ignored (v1 is add-only)."""

    def document(self, **provenance):
        document = json.loads(
            json.dumps(
                schema.plan_document(
                    AllocationPlan(
                        (), 0.5, 0.0, True,
                        search_provenance=AllocationProvenance(
                            grid_hits=4, bnb_active=True, time_budget_s=2.0
                        ),
                    )
                )
            )
        )
        document["search_provenance"].update(provenance)
        return document

    def test_round_trip_keeps_every_counter(self):
        document = self.document()
        decoded = schema.decode_plan(document)
        assert decoded.search_provenance.grid_hits == 4
        assert decoded.search_provenance.bnb_active is True
        assert schema.plan_document(decoded) == document

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("grid_hits", "many", "'search_provenance.grid_hits' must be an integer, got 'many'"),
            ("grid_hits", 2.0, "'search_provenance.grid_hits' must be an integer, got 2.0"),
            ("bnb_active", 3.5, "'search_provenance.bnb_active' must be a boolean, got 3.5"),
            ("anytime", None, "'search_provenance.anytime' must be a boolean, got None"),
            ("time_budget_s", "2", "'search_provenance.time_budget_s' must be a number, got '2'"),
            ("budget_consumed_s", True,
             "'search_provenance.budget_consumed_s' must be a number, got True"),
        ],
    )
    def test_bad_counter_names_its_field(self, field, value, message):
        with pytest.raises(SchemaError) as raised:
            schema.decode_plan(self.document(**{field: value}))
        assert str(raised.value) == f"plan document: {message}"

    def test_unknown_keys_ignored_and_absent_counters_default(self):
        document = self.document(future_counter="anything")
        del document["search_provenance"]["grid_hits"]
        document["search_provenance"]["time_budget_s"] = None
        provenance = schema.decode_plan(document).search_provenance
        assert provenance.grid_hits == 0
        assert provenance.time_budget_s is None
