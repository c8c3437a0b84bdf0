"""Pinned decoder messages: the exact ``SchemaError`` text of each fault.

Every wire decoder is fed a valid document with exactly one fault --
one field missing, or one field of the wrong type -- and must reject it
with the text pinned here.  The table walks every field of every wire
type that has a decoder (``VMRequest``, ``AllocationPlan`` with its
``BlockAssignment``/``EstimatedOutcome`` rows, ``EvaluationResult`` with
its ``StrategyOutcome`` rows), plus the special texts (version gating,
unknown ``workload_class``, deadline and ``vm_id`` checks, the
block/``vm_ids`` count) and the session snapshot's restore texts.
Optional fields decode to their defaults when absent.
"""

from __future__ import annotations

import copy
import re

import pytest

from repro.common.errors import SchemaError
from repro.core.allocator import VMRequest
from repro.core.model import EstimatedOutcome
from repro.core.plan import AllocationPlan, AllocationProvenance, BlockAssignment
from repro.experiments.evaluation import StrategyOutcome
from repro.service import schema
from repro.service.session import Session, SessionConfig

DELETE = object()


def edited(document, path: str, value):
    """A deep copy of ``document`` with the field at ``path`` (dotted,
    ``[i]`` for array items) set to ``value``, or removed for DELETE."""
    keys = [
        int(part[1:-1]) if part.startswith("[") else part
        for part in re.findall(r"\[\d+\]|[^.\[\]]+", path)
    ]
    document = copy.deepcopy(document)
    target = document
    for key in keys[:-1]:
        target = target[key]
    if value is DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return document


class _Result:
    def __init__(self, outcomes, n_jobs, n_vms):
        self.outcomes = outcomes
        self.n_jobs = n_jobs
        self.n_vms = n_vms


VM_REQUEST = schema.vm_request_document(VMRequest("vm0", "cpu", 600.0))
PLAN = schema.plan_document(
    AllocationPlan(
        (
            BlockAssignment(
                "s0",
                (1, 0, 0),
                ("vm0",),
                (1, 0, 0),
                EstimatedOutcome((1, 0, 0), 100.0, 5000.0, True),
            ),
        ),
        0.5,
        1.25,
        True,
        alpha_carbon=0.2,
        estimated_carbon_g=3.0,
        estimated_cost=0.5,
        search_provenance=AllocationProvenance(grid_hits=2, time_budget_s=1.5),
    )
)
EVALUATION = schema.evaluation_document(
    _Result(
        (StrategyOutcome("smaller", "PA-0.5", 900.0, 5e6, 2.5, 40.0, 7, 1.25, 0.5),),
        n_jobs=1,
        n_vms=60,
    )
)
DOCUMENTS = {
    "vm_request": (VM_REQUEST, schema.decode_vm_request),
    "plan": (PLAN, schema.decode_plan),
    "evaluation": (EVALUATION, schema.decode_evaluation),
}

A0 = "assignments[0]"
O0 = "outcomes[0]"

#: (document kind, field path, new value or DELETE, exact message).
FIELD_MESSAGES = [
    ("vm_request", "vm_id", DELETE, "vm_request document is missing 'vm_id'"),
    ("vm_request", "vm_id", 5, "vm_request document: 'vm_id' must be a string, got 5"),
    ("vm_request", "workload_class", DELETE,
     "vm_request document is missing 'workload_class'"),
    ("vm_request", "workload_class", 5,
     "vm_request document: 'workload_class' must be a string, got 5"),
    ("vm_request", "max_exec_time_s", "x",
     "vm_request document: 'max_exec_time_s' must be a number, got 'x'"),
    ("vm_request", "max_exec_time_s", True,
     "vm_request document: 'max_exec_time_s' must be a number, got True"),
    ("plan", "assignments", DELETE, "plan document is missing 'assignments'"),
    ("plan", "assignments", "x",
     "plan document: 'assignments' must be an array, got 'x'"),
    ("plan", A0, 5, "plan document: 'assignments[0]' must be an object, got 5"),
    ("plan", f"{A0}.server_id", DELETE,
     "plan document is missing 'server_id'"),
    ("plan", f"{A0}.server_id", 5,
     "plan document: 'assignments[0].server_id' must be a string, got 5"),
    ("plan", f"{A0}.block", DELETE,
     "plan document is missing 'block'"),
    ("plan", f"{A0}.block", [],
     "plan document: 'assignments[0].block' must be an object, got []"),
    ("plan", f"{A0}.block.ncpu", DELETE,
     "plan document is missing 'ncpu'"),
    ("plan", f"{A0}.block.ncpu", 1.5,
     "plan document: 'assignments[0].block.ncpu' must be an integer, got 1.5"),
    ("plan", f"{A0}.block.nmem", DELETE,
     "plan document is missing 'nmem'"),
    ("plan", f"{A0}.block.nmem", 1.5,
     "plan document: 'assignments[0].block.nmem' must be an integer, got 1.5"),
    ("plan", f"{A0}.block.nio", DELETE,
     "plan document is missing 'nio'"),
    ("plan", f"{A0}.block.nio", 1.5,
     "plan document: 'assignments[0].block.nio' must be an integer, got 1.5"),
    ("plan", f"{A0}.vm_ids", DELETE, "plan document is missing 'vm_ids'"),
    ("plan", f"{A0}.vm_ids", "x",
     "plan document: 'assignments[0].vm_ids' must be an array, got 'x'"),
    ("plan", f"{A0}.vm_ids[0]", 5,
     "plan document: 'assignments[0].vm_ids[*]' must be a string, got 5"),
    ("plan", f"{A0}.combined", DELETE,
     "plan document is missing 'combined'"),
    ("plan", f"{A0}.combined", [],
     "plan document: 'assignments[0].combined' must be an object, got []"),
    ("plan", f"{A0}.combined.ncpu", 1.5,
     "plan document: 'assignments[0].combined.ncpu' must be an integer, got 1.5"),
    ("plan", f"{A0}.combined.nio", DELETE,
     "plan document is missing 'nio'"),
    ("plan", f"{A0}.estimate", DELETE, "plan document is missing 'estimate'"),
    ("plan", f"{A0}.estimate", 5,
     "plan document: 'assignments[0].estimate' must be an object, got 5"),
    ("plan", f"{A0}.estimate.key", DELETE, "plan document is missing 'key'"),
    ("plan", f"{A0}.estimate.key", [],
     "plan document: 'assignments[0].estimate.key' must be an object, got []"),
    ("plan", f"{A0}.estimate.key.nmem", DELETE, "plan document is missing 'nmem'"),
    ("plan", f"{A0}.estimate.key.nmem", 1.5,
     "plan document: 'assignments[0].estimate.key.nmem' must be an integer, got 1.5"),
    ("plan", f"{A0}.estimate.time_s", DELETE, "plan document is missing 'time_s'"),
    ("plan", f"{A0}.estimate.time_s", "x",
     "plan document: 'assignments[0].estimate.time_s' must be a number, got 'x'"),
    ("plan", f"{A0}.estimate.energy_j", DELETE, "plan document is missing 'energy_j'"),
    ("plan", f"{A0}.estimate.energy_j", "x",
     "plan document: 'assignments[0].estimate.energy_j' must be a number, got 'x'"),
    ("plan", f"{A0}.estimate.exact", DELETE, "plan document is missing 'exact'"),
    ("plan", f"{A0}.estimate.exact", "yes",
     "plan document: 'assignments[0].estimate.exact' must be a boolean, got 'yes'"),
    ("plan", "alpha", DELETE, "plan document is missing 'alpha'"),
    ("plan", "alpha", "x", "plan document: 'alpha' must be a number, got 'x'"),
    ("plan", "score", DELETE, "plan document is missing 'score'"),
    ("plan", "score", True, "plan document: 'score' must be a number, got True"),
    ("plan", "qos_satisfied", DELETE, "plan document is missing 'qos_satisfied'"),
    ("plan", "qos_satisfied", "yes",
     "plan document: 'qos_satisfied' must be a boolean, got 'yes'"),
    ("plan", "alpha_carbon", "x",
     "plan document: 'alpha_carbon' must be a number, got 'x'"),
    ("plan", "estimated_carbon_g", "x",
     "plan document: 'estimated_carbon_g' must be a number, got 'x'"),
    ("plan", "estimated_cost", "x",
     "plan document: 'estimated_cost' must be a number, got 'x'"),
    ("plan", "search_provenance", 5,
     "plan document: 'search_provenance' must be an object, got 5"),
    ("evaluation", "outcomes", DELETE, "evaluation document is missing 'outcomes'"),
    ("evaluation", "outcomes", "x",
     "evaluation document: 'outcomes' must be an array, got 'x'"),
    ("evaluation", O0, 5, "evaluation document: 'outcomes[0]' must be an object, got 5"),
    ("evaluation", f"{O0}.cloud", DELETE, "evaluation document is missing 'cloud'"),
    ("evaluation", f"{O0}.cloud", 5,
     "evaluation document: 'outcomes[0].cloud' must be a string, got 5"),
    ("evaluation", f"{O0}.strategy", DELETE,
     "evaluation document is missing 'strategy'"),
    ("evaluation", f"{O0}.strategy", 5,
     "evaluation document: 'outcomes[0].strategy' must be a string, got 5"),
    ("evaluation", f"{O0}.makespan_s", DELETE,
     "evaluation document is missing 'makespan_s'"),
    ("evaluation", f"{O0}.makespan_s", "x",
     "evaluation document: 'outcomes[0].makespan_s' must be a number, got 'x'"),
    ("evaluation", f"{O0}.energy_j", DELETE, "evaluation document is missing 'energy_j'"),
    ("evaluation", f"{O0}.energy_j", "x",
     "evaluation document: 'outcomes[0].energy_j' must be a number, got 'x'"),
    ("evaluation", f"{O0}.sla_violation_pct", DELETE,
     "evaluation document is missing 'sla_violation_pct'"),
    ("evaluation", f"{O0}.sla_violation_pct", "x",
     "evaluation document: 'outcomes[0].sla_violation_pct' must be a number, got 'x'"),
    ("evaluation", f"{O0}.mean_response_s", DELETE,
     "evaluation document is missing 'mean_response_s'"),
    ("evaluation", f"{O0}.mean_response_s", "x",
     "evaluation document: 'outcomes[0].mean_response_s' must be a number, got 'x'"),
    ("evaluation", f"{O0}.max_queue_length", DELETE,
     "evaluation document is missing 'max_queue_length'"),
    ("evaluation", f"{O0}.max_queue_length", 1.5,
     "evaluation document: 'outcomes[0].max_queue_length' must be an integer, got 1.5"),
    ("evaluation", f"{O0}.carbon_g", "x",
     "evaluation document: 'outcomes[0].carbon_g' must be a number, got 'x'"),
    ("evaluation", f"{O0}.carbon_g", None,
     "evaluation document: 'outcomes[0].carbon_g' must be a number, got None"),
    ("evaluation", f"{O0}.cost", "x",
     "evaluation document: 'outcomes[0].cost' must be a number, got 'x'"),
    ("evaluation", "n_jobs", DELETE, "evaluation document is missing 'n_jobs'"),
    ("evaluation", "n_jobs", 1.5,
     "evaluation document: 'n_jobs' must be an integer, got 1.5"),
    ("evaluation", "n_vms", DELETE, "evaluation document is missing 'n_vms'"),
    ("evaluation", "n_vms", 1.5, "evaluation document: 'n_vms' must be an integer, got 1.5"),
]

#: Faults with a text of their own.
SPECIAL_MESSAGES = [
    ("vm_request", "workload_class", "gpu",
     "vm_request document: unknown workload_class 'gpu'; expected one of "
     "['cpu', 'io', 'mem']"),
    ("vm_request", "max_exec_time_s", 0,
     "vm_request document: 'max_exec_time_s' must be positive or null, got 0.0"),
    ("vm_request", "max_exec_time_s", -5,
     "vm_request document: 'max_exec_time_s' must be positive or null, got -5.0"),
    ("vm_request", "vm_id", "", "vm_request document: 'vm_id' must be non-empty"),
    ("plan", f"{A0}.vm_ids", ["vm0", "vm1"],
     "plan document: assignments[0]: block (1, 0, 0) holds 1 VMs but 2 ids "
     "were supplied"),
]
for _kind in DOCUMENTS:
    SPECIAL_MESSAGES += [
        (_kind, "schema_version", DELETE, f"{_kind} document is missing 'schema_version'"),
        (_kind, "schema_version", "2",
         f"{_kind} document has schema_version '2'; this build understands ['1']"),
    ]


def _label(case):
    kind, path, value = case[:3]
    return f"{kind}:{path}:{'missing' if value is DELETE else repr(value)}"


@pytest.mark.parametrize(
    "kind, path, value, message",
    FIELD_MESSAGES + SPECIAL_MESSAGES,
    ids=[_label(case) for case in FIELD_MESSAGES + SPECIAL_MESSAGES],
)
def test_single_fault_message(kind, path, value, message):
    document, decode = DOCUMENTS[kind]
    with pytest.raises(SchemaError) as raised:
        decode(edited(document, path, value))
    assert str(raised.value) == message


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_non_object_document_message(kind):
    with pytest.raises(SchemaError) as raised:
        DOCUMENTS[kind][1]([])
    assert str(raised.value) == f"{kind} document must be a JSON object, got list"


#: (document kind, field path, new value or DELETE, reader, decoded value).
OPTIONAL_FIELDS = [
    ("vm_request", "max_exec_time_s", DELETE, lambda r: r.max_exec_time_s, None),
    ("vm_request", "max_exec_time_s", None, lambda r: r.max_exec_time_s, None),
    ("plan", "alpha_carbon", DELETE, lambda p: p.alpha_carbon, 0.0),
    ("plan", "alpha_carbon", None, lambda p: p.alpha_carbon, 0.0),
    ("plan", "estimated_carbon_g", DELETE, lambda p: p.estimated_carbon_g, None),
    ("plan", "estimated_carbon_g", None, lambda p: p.estimated_carbon_g, None),
    ("plan", "estimated_cost", DELETE, lambda p: p.estimated_cost, None),
    ("plan", "estimated_cost", None, lambda p: p.estimated_cost, None),
    ("plan", "search_provenance", DELETE, lambda p: p.search_provenance, None),
    ("plan", "search_provenance", None, lambda p: p.search_provenance, None),
    ("plan", "estimated_makespan_s", "ignored", lambda p: p.estimated_makespan_s, 100.0),
    ("plan", "n_vms", "ignored", lambda p: p.n_vms, 1),
    ("evaluation", f"{O0}.carbon_g", DELETE, lambda e: e.outcomes[0].carbon_g, 0.0),
    ("evaluation", f"{O0}.cost", DELETE, lambda e: e.outcomes[0].cost, 0.0),
]


@pytest.mark.parametrize(
    "kind, path, value, read, expected",
    OPTIONAL_FIELDS,
    ids=[_label(case) for case in OPTIONAL_FIELDS],
)
def test_optional_field_decodes_to_default(kind, path, value, read, expected):
    document, decode = DOCUMENTS[kind]
    assert read(decode(edited(document, path, value))) == expected


# -- session restore ---------------------------------------------------


@pytest.fixture(scope="module")
def snapshot(database):
    session = Session("sess-m", SessionConfig(n_servers=2, coalesce=4), database)
    session.admit([VMRequest("vm0", "cpu"), VMRequest("vm1", "mem", 900.0)])
    session.flush()
    session.admit([VMRequest("vm2", "io")])
    document = session.state_document()
    assert [entry["server_id"] for entry in document["servers"]] == ["s0", "s1"]
    assert document["placements"][0]["server_id"] == "s0"
    return document


S0 = "servers[0]"
P0 = "placements[0]"
ST = "session_state document"

#: (field path, new value or DELETE, exception type, exact message).
RESTORE_MESSAGES = [
    ("schema_version", DELETE, SchemaError, f"{ST} is missing 'schema_version'"),
    ("schema_version", "2", SchemaError,
     f"{ST} has schema_version '2'; this build understands ['1']"),
    ("config", DELETE, SchemaError, f"{ST} is missing 'config'"),
    ("config", 5, SchemaError, f"{ST}: 'config' must be an object, got 5"),
    ("config.strict_qos", "yes", SchemaError,
     "session config: 'strict_qos' must be a boolean, got 'yes'"),
    ("config.bogus", 1, SchemaError, "session config: unknown keys ['bogus']"),
    ("config.alpha", 2.0, SchemaError,
     "session config: alpha must be within [0, 1] (1 = minimize energy, "
     "0 = minimize time), got 2"),
    ("servers", DELETE, SchemaError, f"{ST} is missing 'servers'"),
    ("servers", "x", SchemaError, f"{ST}: 'servers' must be an array, got 'x'"),
    (S0, 5, SchemaError, f"{ST}: 'servers[0]' must be an object, got 5"),
    (f"{S0}.server_id", DELETE, SchemaError, f"{ST} is missing 'server_id'"),
    (f"{S0}.server_id", 5, SchemaError,
     f"{ST}: 'servers[0].server_id' must be a string, got 5"),
    ("servers[1].server_id", "s0", SchemaError, f"{ST}: duplicate server_id 's0'"),
    (f"{S0}.server_id", "", SchemaError, "server_id must be non-empty"),
    (f"{S0}.allocated", DELETE, SchemaError, f"{ST} is missing 'allocated'"),
    (f"{S0}.allocated", [], SchemaError,
     f"{ST}: 'servers[0].allocated' must be an object, got []"),
    (f"{S0}.allocated.nio", DELETE, SchemaError, f"{ST} is missing 'nio'"),
    (f"{S0}.allocated.nio", 1.5, SchemaError,
     f"{ST}: 'servers[0].allocated.nio' must be an integer, got 1.5"),
    (f"{S0}.allocated.nio", -1, SchemaError,
     "allocated counts must be >= 0, got (1, 1, -1)"),
    ("pending", DELETE, SchemaError, f"{ST} is missing 'pending'"),
    ("pending", "x", SchemaError, f"{ST}: 'pending' must be an array, got 'x'"),
    ("pending[0]", 5, SchemaError, "vm_request document must be a JSON object, got int"),
    ("pending[0].vm_id", DELETE, SchemaError, "vm_request document is missing 'vm_id'"),
    ("pending[0].vm_id", 5, SchemaError,
     "vm_request document: 'vm_id' must be a string, got 5"),
    ("placements", DELETE, SchemaError, f"{ST} is missing 'placements'"),
    ("placements", "x", SchemaError, f"{ST}: 'placements' must be an array, got 'x'"),
    (P0, 5, SchemaError, f"{ST}: 'placements[0]' must be an object, got 5"),
    (f"{P0}.vm_id", DELETE, SchemaError, f"{ST} is missing 'vm_id'"),
    (f"{P0}.vm_id", 5, SchemaError, f"{ST}: 'placements[0].vm_id' must be a string, got 5"),
    (f"{P0}.server_id", DELETE, SchemaError, f"{ST} is missing 'server_id'"),
    (f"{P0}.server_id", 5, SchemaError,
     f"{ST}: 'placements[0].server_id' must be a string, got 5"),
    (f"{P0}.server_id", "zz", SchemaError,
     f"{ST}: placements[0] names unknown server 'zz'"),
    (f"{P0}.workload_class", DELETE, SchemaError,
     f"{ST}: placements[0] has unknown workload_class None"),
    (f"{P0}.workload_class", 5, SchemaError,
     f"{ST}: placements[0] has unknown workload_class 5"),
    (f"{P0}.workload_class", "gpu", SchemaError,
     f"{ST}: placements[0] has unknown workload_class 'gpu'"),
    ("admitted_total", DELETE, SchemaError, f"{ST} is missing 'admitted_total'"),
    ("admitted_total", 1.5, SchemaError,
     f"{ST}: 'admitted_total' must be an integer, got 1.5"),
    ("next_ordinal", DELETE, SchemaError, f"{ST} is missing 'next_ordinal'"),
    ("next_ordinal", 1.5, SchemaError, f"{ST}: 'next_ordinal' must be an integer, got 1.5"),
    ("batches_completed", DELETE, SchemaError, f"{ST} is missing 'batches_completed'"),
    ("batches_completed", 1.5, SchemaError,
     f"{ST}: 'batches_completed' must be an integer, got 1.5"),
    ("servers", [], SchemaError,
     f"{ST}: 0 servers listed but the config says n_servers=2"),
]


@pytest.mark.parametrize(
    "path, value, error, message",
    RESTORE_MESSAGES,
    ids=[_label(("session_state",) + case[:2]) for case in RESTORE_MESSAGES],
)
def test_restore_message(database, snapshot, path, value, error, message):
    session = Session("sess-r", SessionConfig(n_servers=2, coalesce=4), database)
    with pytest.raises(error) as raised:
        session.restore(edited(snapshot, path, value))
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_restore_non_object_message(database):
    session = Session("sess-r", SessionConfig(n_servers=2, coalesce=4), database)
    with pytest.raises(SchemaError) as raised:
        session.restore([])
    assert str(raised.value) == "session_state document must be a JSON object, got list"
