"""Wire schema v1: one versioned JSON shape for every surface.

Every JSON document the repo emits -- CLI ``--format json`` output,
HTTP responses, benchmark result files -- carries ``schema_version:
"1"`` and is built by (or round-trips through) this module.  The
stability policy (DESIGN.md, "Service architecture"):

* Within a schema version, fields are only *added*, never renamed,
  retyped or removed; consumers must ignore unknown fields.
* A breaking change bumps :data:`SCHEMA_VERSION`; decoders reject
  documents whose version they do not understand with a
  :class:`~repro.common.errors.SchemaError` naming both versions.

Encoders (``*_document``) return plain JSON-ready dicts with
deterministic content, and :func:`encode_document` writes any of them
as wire text byte-for-byte equal to ``json.dumps(..., indent=2,
sort_keys=True)``: two equal objects encode to byte-identical text.
Decoders (``decode_*``) validate eagerly and raise
:class:`~repro.common.errors.SchemaError` (a ``ValueError``) with
messages naming the offending field, so the CLI and the HTTP service
reject the same malformed input with the same text.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

from repro.common.errors import SchemaError
from repro.core.allocator import VMRequest
from repro.core.model import EstimatedOutcome
from repro.core.plan import AllocationPlan, AllocationProvenance, BlockAssignment
from repro.experiments.evaluation import StrategyOutcome
from repro.faults.spec import FaultRecord, FaultSpec
from repro.testbed.benchmarks import WorkloadClass

#: The current wire schema version.  Stamped onto every emitted
#: document; bumped only on a breaking change (see module docstring).
SCHEMA_VERSION = "1"

#: Versions this module can decode.
_SUPPORTED_VERSIONS = frozenset({SCHEMA_VERSION})


def stamp(document: dict) -> dict:
    """Return ``document`` with the current ``schema_version`` stamped in."""
    stamped = {"schema_version": SCHEMA_VERSION}
    stamped.update(document)
    return stamped


def check_version(document, kind: str) -> Mapping:
    """Require a supported ``schema_version``; return the document.

    ``kind`` names the expected document type for the error message.
    """
    if not isinstance(document, Mapping):
        raise SchemaError(
            f"{kind} document must be a JSON object, got {type(document).__name__}"
        )
    version = document.get("schema_version")
    if version is None:
        raise SchemaError(f"{kind} document is missing 'schema_version'")
    if version not in _SUPPORTED_VERSIONS:
        raise SchemaError(
            f"{kind} document has schema_version {version!r}; this build "
            f"understands {sorted(_SUPPORTED_VERSIONS)}"
        )
    return document


def _require(document: Mapping, field: str, kind: str):
    try:
        return document[field]
    except KeyError:
        raise SchemaError(f"{kind} document is missing {field!r}") from None


def _number(value, field: str, kind: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{kind} document: {field!r} must be a number, got {value!r}")
    return float(value)


def _integer(value, field: str, kind: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(
            f"{kind} document: {field!r} must be an integer, got {value!r}"
        )
    return value


def _boolean(value, field: str, kind: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{kind} document: {field!r} must be a boolean, got {value!r}")
    return value


def _string(value, field: str, kind: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{kind} document: {field!r} must be a string, got {value!r}")
    return value


def _array(value, field: str, kind: str) -> Sequence:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise SchemaError(f"{kind} document: {field!r} must be an array, got {value!r}")
    return value


def _object(value, field: str, kind: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise SchemaError(f"{kind} document: {field!r} must be an object, got {value!r}")
    return value


# -- wire text ---------------------------------------------------------

#: Total dict keys the layout table holds before it is wholesale
#: cleared.  Clearing only costs re-sorting; output is unaffected.  A
#: service run needs a few hundred (about twenty document shapes), and
#: at well under 100 bytes per key the table stays within a few MB.
_LAYOUT_KEYS_MAX = 1 << 14

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_LITERALS = {True: "true", False: "false", None: "null"}

#: (dict keys in insertion order, depth) -> (sorted keys, the pre-encoded
#: ``"{\n<indent>\"key\": "`` / ``",\n<indent>\"key\": "`` prefix of each,
#: the closing ``"\n<indent>}"``).
_layouts: dict[tuple, tuple] = {}
_layout_keys = 0


class _Unencodable(Exception):
    """A value outside the fast path: ``json.dumps`` encodes the document."""


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


#: The encoders ``json.dumps`` applies to each exact scalar type.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: _LITERALS.__getitem__,
    type(None): _LITERALS.__getitem__,
}


def _layout(keys: tuple, depth: int) -> tuple:
    global _layout_keys
    if not all(type(key) is str for key in keys):
        raise _Unencodable
    order = sorted(keys)
    indent = "\n" + "  " * (depth + 1)
    prefixes = [f",{indent}{encode_basestring_ascii(key)}: " for key in order]
    prefixes[0] = "{" + prefixes[0][1:]
    if _layout_keys + len(keys) > _LAYOUT_KEYS_MAX:
        _layouts.clear()
        _layout_keys = 0
    _layout_keys += len(keys)
    layout = _layouts[keys, depth] = (order, prefixes, "\n" + "  " * depth + "}")
    return layout


def _emit(value, depth: int, append, scalar=_SCALARS.get) -> None:
    kind = type(value)
    if kind is dict:
        if not value:
            append("{}")
            return
        keys = tuple(value)
        # Layouts are built from exact-str keys only; a str-subclass key
        # equal to one of them hits it, and json.dumps writes it the same.
        order, prefixes, closing = _layouts.get((keys, depth)) or _layout(keys, depth)
        depth += 1
        for prefix, item in zip(prefixes, map(value.__getitem__, order)):
            append(prefix)
            encode = scalar(type(item))
            if encode is None:
                _emit(item, depth, append)
            else:
                append(encode(item))
        append(closing)
    elif kind is list or kind is tuple:
        if not value:
            append("[]")
            return
        depth += 1
        separator = ",\n" + "  " * depth
        prefix = "[" + separator[1:]
        for item in value:
            append(prefix)
            prefix = separator
            encode = scalar(type(item))
            if encode is None:
                _emit(item, depth, append)
            else:
                append(encode(item))
        append(separator[1:-2] + "]")
    else:
        encode = scalar(kind)
        if encode is None:
            raise _Unencodable
        append(encode(value))


def encode_document(document) -> str:
    """The wire text of ``document``: byte-for-byte ``json.dumps(document,
    indent=2, sort_keys=True)``.

    Exact ``dict``/``list``/``tuple``/``str``/``int``/``float``/``bool``/
    ``None`` values take the fast path, with the scalar encoders
    ``json.dumps`` itself applies and each dict shape's sorted key order
    and key prefixes read from the layout table.  Any other value -- a
    ``str``/``int``/``float`` subclass such as an ``Enum`` member, a
    non-``str`` key, an unknown type, a cycle -- sends the whole
    document through ``json.dumps``, which spells it or raises its own
    error.
    """
    parts: list[str] = []
    try:
        _emit(document, 0, parts.append)
    except (_Unencodable, RecursionError):
        return json.dumps(document, indent=2, sort_keys=True)
    return "".join(parts)


# -- error envelope ----------------------------------------------------


def error_envelope(code: str, message: str, **detail) -> dict:
    """The uniform failure document (HTTP error bodies, CLI JSON errors).

    ``code`` is a stable machine-readable slug (``invalid_request``,
    ``backpressure``, ``not_found``, ``infeasible``, ``internal_error``);
    ``message`` is the human text -- for validation failures, the exact
    :class:`ValueError` message the CLI would print before exiting 2.
    """
    error: dict = {"code": code, "message": message}
    if detail:
        error["detail"] = dict(sorted(detail.items()))
    return stamp({"error": error})


# -- VM requests -------------------------------------------------------


def vm_request_document(request: VMRequest) -> dict:
    """Encode one :class:`~repro.core.allocator.VMRequest`."""
    return stamp(
        {
            "vm_id": request.vm_id,
            "workload_class": request.workload_class.value,
            "max_exec_time_s": request.max_exec_time_s,
        }
    )


def decode_vm_request(document) -> VMRequest:
    """Decode one VM-request document (strictly validated)."""
    kind = "vm_request"
    document = check_version(document, kind)
    vm_id = _string(_require(document, "vm_id", kind), "vm_id", kind)
    class_name = _string(
        _require(document, "workload_class", kind), "workload_class", kind
    )
    try:
        workload_class = WorkloadClass(class_name)
    except ValueError:
        raise SchemaError(
            f"{kind} document: unknown workload_class {class_name!r}; expected "
            f"one of {sorted(c.value for c in WorkloadClass)}"
        ) from None
    deadline = document.get("max_exec_time_s")
    if deadline is not None:
        deadline = _number(deadline, "max_exec_time_s", kind)
        if deadline <= 0:
            raise SchemaError(
                f"{kind} document: 'max_exec_time_s' must be positive or null, "
                f"got {deadline}"
            )
    if not vm_id:
        raise SchemaError(f"{kind} document: 'vm_id' must be non-empty")
    return VMRequest(vm_id, workload_class, deadline)


# -- allocation plans --------------------------------------------------


def _mix_document(mix: "tuple[int, int, int]") -> dict:
    return {"ncpu": mix[0], "nmem": mix[1], "nio": mix[2]}


def _decode_mix(value, field: str, kind: str) -> "tuple[int, int, int]":
    mix = _object(value, field, kind)
    return (
        _integer(_require(mix, "ncpu", kind), f"{field}.ncpu", kind),
        _integer(_require(mix, "nmem", kind), f"{field}.nmem", kind),
        _integer(_require(mix, "nio", kind), f"{field}.nio", kind),
    )


def _assignment_document(assignment: BlockAssignment) -> dict:
    return {
        "server_id": assignment.server_id,
        "block": _mix_document(assignment.block),
        "vm_ids": list(assignment.vm_ids),
        "combined": _mix_document(assignment.combined_key),
        "estimate": {
            "key": _mix_document(assignment.estimate.key),
            "time_s": assignment.estimate.time_s,
            "energy_j": assignment.estimate.energy_j,
            "exact": assignment.estimate.exact,
        },
    }


def _decode_assignment(value, index: int, kind: str) -> BlockAssignment:
    field = f"assignments[{index}]"
    document = _object(value, field, kind)
    estimate = _object(_require(document, "estimate", kind), f"{field}.estimate", kind)
    outcome = EstimatedOutcome(
        key=_decode_mix(_require(estimate, "key", kind), f"{field}.estimate.key", kind),
        time_s=_number(_require(estimate, "time_s", kind), f"{field}.estimate.time_s", kind),
        energy_j=_number(
            _require(estimate, "energy_j", kind), f"{field}.estimate.energy_j", kind
        ),
        exact=_boolean(
            _require(estimate, "exact", kind), f"{field}.estimate.exact", kind
        ),
    )
    vm_ids = _array(_require(document, "vm_ids", kind), f"{field}.vm_ids", kind)
    try:
        return BlockAssignment(
            server_id=_string(
                _require(document, "server_id", kind), f"{field}.server_id", kind
            ),
            block=_decode_mix(_require(document, "block", kind), f"{field}.block", kind),
            vm_ids=tuple(_string(v, f"{field}.vm_ids[*]", kind) for v in vm_ids),
            combined_key=_decode_mix(
                _require(document, "combined", kind), f"{field}.combined", kind
            ),
            estimate=outcome,
        )
    except ValueError as error:
        raise SchemaError(f"{kind} document: {field}: {error}") from None


def plan_document(plan: AllocationPlan) -> dict:
    """Encode one :class:`~repro.core.plan.AllocationPlan`.

    The canonical JSON form of a plan: the CLI's ``allocate --format
    json`` output and the service's batch responses embed exactly this
    document, so the two are byte-identical modulo the surrounding
    transport envelope.
    """
    provenance = plan.search_provenance
    document = {
        "assignments": [_assignment_document(a) for a in plan.assignments],
        "alpha": plan.alpha,
        "score": plan.score,
        "qos_satisfied": plan.qos_satisfied,
        "estimated_makespan_s": plan.estimated_makespan_s,
        "estimated_energy_j": plan.estimated_energy_j,
        "n_vms": plan.n_vms,
        "search_provenance": provenance.as_dict() if provenance is not None else None,
    }
    # Carbon fields cross the wire only when the plan was scored with a
    # live carbon context: 2-way plans keep their pre-carbon bytes.
    if plan.alpha_carbon:
        document["alpha_carbon"] = plan.alpha_carbon
        document["estimated_carbon_g"] = plan.estimated_carbon_g
        document["estimated_cost"] = plan.estimated_cost
    return stamp(document)


def decode_plan(document) -> AllocationPlan:
    """Decode a plan document back into an :class:`AllocationPlan`.

    Derived fields (``estimated_makespan_s``, ``estimated_energy_j``,
    ``n_vms``) are recomputed from the assignments, not read back, so a
    hand-edited document cannot carry inconsistent totals.
    """
    kind = "plan"
    document = check_version(document, kind)
    assignments = tuple(
        _decode_assignment(value, i, kind)
        for i, value in enumerate(_array(_require(document, "assignments", kind), "assignments", kind))
    )
    raw_provenance = document.get("search_provenance")
    provenance = None
    if raw_provenance is not None:
        provenance = AllocationProvenance.from_counts(
            _object(raw_provenance, "search_provenance", kind)
        )
    raw_alpha_carbon = document.get("alpha_carbon")
    raw_carbon_g = document.get("estimated_carbon_g")
    raw_cost = document.get("estimated_cost")
    return AllocationPlan(
        assignments=assignments,
        alpha=_number(_require(document, "alpha", kind), "alpha", kind),
        score=_number(_require(document, "score", kind), "score", kind),
        qos_satisfied=_boolean(
            _require(document, "qos_satisfied", kind), "qos_satisfied", kind
        ),
        alpha_carbon=(
            _number(raw_alpha_carbon, "alpha_carbon", kind)
            if raw_alpha_carbon is not None
            else 0.0
        ),
        estimated_carbon_g=(
            _number(raw_carbon_g, "estimated_carbon_g", kind)
            if raw_carbon_g is not None
            else None
        ),
        estimated_cost=(
            _number(raw_cost, "estimated_cost", kind) if raw_cost is not None else None
        ),
        search_provenance=provenance,
    )


# -- evaluation results ------------------------------------------------


def _outcome_document(outcome: StrategyOutcome) -> dict:
    document = {
        "cloud": outcome.cloud,
        "strategy": outcome.strategy,
        "makespan_s": outcome.makespan_s,
        "energy_j": outcome.energy_j,
        "sla_violation_pct": outcome.sla_violation_pct,
        "mean_response_s": outcome.mean_response_s,
        "max_queue_length": outcome.max_queue_length,
    }
    # Carbon/cost totals exist only in carbon-scenario runs; emitting
    # them conditionally keeps signal-free documents byte-identical.
    if outcome.carbon_g or outcome.cost:
        document["carbon_g"] = outcome.carbon_g
        document["cost"] = outcome.cost
    return document


def _decode_outcome(value, index: int, kind: str) -> StrategyOutcome:
    field = f"outcomes[{index}]"
    document = _object(value, field, kind)
    return StrategyOutcome(
        cloud=_string(_require(document, "cloud", kind), f"{field}.cloud", kind),
        strategy=_string(
            _require(document, "strategy", kind), f"{field}.strategy", kind
        ),
        makespan_s=_number(
            _require(document, "makespan_s", kind), f"{field}.makespan_s", kind
        ),
        energy_j=_number(
            _require(document, "energy_j", kind), f"{field}.energy_j", kind
        ),
        sla_violation_pct=_number(
            _require(document, "sla_violation_pct", kind),
            f"{field}.sla_violation_pct",
            kind,
        ),
        mean_response_s=_number(
            _require(document, "mean_response_s", kind),
            f"{field}.mean_response_s",
            kind,
        ),
        max_queue_length=_integer(
            _require(document, "max_queue_length", kind),
            f"{field}.max_queue_length",
            kind,
        ),
        carbon_g=_number(
            document.get("carbon_g", 0.0), f"{field}.carbon_g", kind
        ),
        cost=_number(document.get("cost", 0.0), f"{field}.cost", kind),
    )


def evaluation_document(result) -> dict:
    """Encode the Figs. 5-7 evaluation cells.

    ``result`` is anything with ``outcomes``/``n_jobs``/``n_vms`` --
    an :class:`~repro.experiments.evaluation.EvaluationResult` or the
    named tuple :func:`decode_evaluation` returns.  The campaign
    provenance is deliberately not part of the wire format (it is
    reproducible from the seed and large).
    """
    return stamp(
        {
            "outcomes": [_outcome_document(o) for o in result.outcomes],
            "n_jobs": result.n_jobs,
            "n_vms": result.n_vms,
        }
    )


class EvaluationDocument:
    """Decoded evaluation cells: outcomes plus trace provenance.

    A lightweight read-side view (no campaign attached); re-encoding it
    with :func:`evaluation_document` reproduces the input document.
    """

    __slots__ = ("outcomes", "n_jobs", "n_vms")

    def __init__(self, outcomes: "tuple[StrategyOutcome, ...]", n_jobs: int, n_vms: int):
        self.outcomes = outcomes
        self.n_jobs = n_jobs
        self.n_vms = n_vms


def decode_evaluation(document) -> EvaluationDocument:
    """Decode an evaluation document (outcomes compare bit-equal)."""
    kind = "evaluation"
    document = check_version(document, kind)
    outcomes = tuple(
        _decode_outcome(value, i, kind)
        for i, value in enumerate(
            _array(_require(document, "outcomes", kind), "outcomes", kind)
        )
    )
    return EvaluationDocument(
        outcomes=outcomes,
        n_jobs=_integer(_require(document, "n_jobs", kind), "n_jobs", kind),
        n_vms=_integer(_require(document, "n_vms", kind), "n_vms", kind),
    )


# -- fault specs and records -------------------------------------------


def fault_spec_document(spec: FaultSpec) -> dict:
    """Encode a :class:`~repro.faults.FaultSpec` (the CLI's ``--faults`` echo)."""
    return stamp(spec.to_dict())


def decode_fault_spec(document) -> FaultSpec:
    """Decode a fault-spec document.

    Field validation is :meth:`FaultSpec.from_dict`'s; this wrapper
    adds the version check and re-raises
    :class:`~repro.common.errors.FaultSpecError` unchanged (it already
    is a ``ValueError``).
    """
    kind = "fault_spec"
    document = check_version(document, kind)
    body = {key: value for key, value in document.items() if key != "schema_version"}
    return FaultSpec.from_dict(body)


def fault_record_document(record: FaultRecord) -> dict:
    """Encode one fault-log entry (what actually happened)."""
    return stamp(
        {
            "time_s": record.time_s,
            "kind": record.kind,
            "target": record.target,
            "vm_ids": list(record.vm_ids),
            "lost_work_s": record.lost_work_s,
            "applied": record.applied,
            "detail": record.detail,
        }
    )
