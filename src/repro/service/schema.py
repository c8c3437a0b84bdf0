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

Each wire type is declared once, as a :class:`Wire` checked against
its dataclass at import; the encoders (``*_document``) and decoders
(``decode_*``) are built from those declarations.  Encoders return
plain JSON-ready dicts with deterministic content, and
:func:`encode_document` writes any of them as wire text byte-for-byte
equal to ``json.dumps(..., indent=2, sort_keys=True)``.  Decoders
validate eagerly and raise :class:`~repro.common.errors.SchemaError`
(a ``ValueError``) with messages naming the offending field, so the
CLI and the HTTP service reject the same malformed input with the same
text.
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.common.errors import SchemaError
from repro.core.allocator import VMRequest
from repro.core.model import EstimatedOutcome
from repro.core.plan import AllocationPlan, AllocationProvenance, BlockAssignment
from repro.experiments.evaluation import EvaluationResult, StrategyOutcome
from repro.faults.spec import FaultRecord, FaultSpec
from repro.testbed.benchmarks import WorkloadClass

#: The current wire schema version.  Stamped onto every emitted
#: document; bumped only on a breaking change (see module docstring).
SCHEMA_VERSION = "1"

#: The stamp heading every versioned document.
_STAMP = {"schema_version": SCHEMA_VERSION}

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


# -- declared wire types -----------------------------------------------

#: An absent key in a decoded document.
_ABSENT = object()


class Codec(NamedTuple):
    """How one field's value crosses the wire.

    ``decode(value, path, kind)`` validates a JSON value and returns the
    attribute, raising :class:`SchemaError` naming ``path`` (None marks
    an encode-only derived field); ``encode`` maps the attribute to its
    JSON value (None: as is).  ``nullable`` reads ``null`` as the field's
    default.  An absent key reads as ``absent``; left unset, the field
    is required unless its dataclass gives it a default.
    """

    decode: Callable | None
    encode: Callable | None = None
    nullable: bool = False
    absent: object = _ABSENT


def _getter(names) -> Callable:
    """A callable returning the tuple of ``names``' attribute values."""
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda obj: (get(obj),)


class Wire:
    """One wire type, declared once: a dataclass and its fields' codecs.

    ``fields`` maps each attribute, in wire order, to its codec (a
    :class:`Codec`, or the :class:`Wire` of a nested object).
    ``renames`` gives an attribute another wire name, and ``exempt``
    lists the dataclass fields that never cross the wire.  ``groups``
    maps a tuple of fields to the predicate under which they are
    encoded, so documents without them keep their bytes.  ``kind``
    names a top-level document type; ``build`` replaces the dataclass
    as the decoder's constructor.  The declaration is checked against
    :func:`dataclasses.fields` when it is made, at import.
    ``encode(obj, head=None)`` writes ``obj``'s fields after ``head``'s;
    ``document(obj)`` is its versioned document, read back by ``decode``.
    """

    def __init__(self, cls, fields, *, kind=None, renames=(), exempt=(), groups=(),
                 build=None):
        fields = {name: _codec(codec) for name, codec in fields.items()}
        renames, groups = dict(renames), dict(groups)
        defaulted = _check(cls, fields, exempt, renames, groups)
        wire = {name: renames.get(name, name) for name in fields}
        grouped = {name for group in groups for name in group}
        emitted = [name for name in fields if name not in grouped]
        keys, get = tuple(wire[name] for name in emitted), _getter(emitted)
        coded = tuple((wire[n], fields[n].encode) for n in emitted if fields[n].encode)
        optional = tuple(
            (when, tuple(wire[name] for name in group), _getter(group))
            for group, when in groups.items()
        )

        def encode(obj, head=None):
            document = dict(zip(keys, get(obj)))
            for key, write in coded:
                document[key] = write(document[key])
            for when, group_keys, group_get in optional:
                if when(obj):
                    document.update(zip(group_keys, group_get(obj)))
            return document if head is None else {**head, **document}

        self.encode = encode
        self.document = partial(encode, head=_STAMP)
        self.codec = Codec(self._decode_object, encode)
        self.kind = kind
        self._build = build or cls
        self._reads = tuple(
            (name, wire[name], codec.decode, codec.absent, codec.nullable,
             name in defaulted)
            for name, codec in fields.items()
            if codec.decode is not None
        )

    def decode(self, document):
        """Decode a versioned document of this type (strictly validated)."""
        return self._decode_fields(check_version(document, self.kind), "", self.kind)

    def _decode_object(self, value, path: str, kind: str):
        return self._decode_fields(_object(value, path, kind), f"{path}.", kind)

    def _decode_fields(self, document: Mapping, prefix: str, kind: str):
        values = {}
        for name, key, read, absent, null_ok, optional in self._reads:
            value = document.get(key, absent)
            if value is _ABSENT:
                if optional:
                    continue
                raise SchemaError(f"{kind} document is missing {key!r}")
            if value is None and null_ok:
                continue
            values[name] = read(value, prefix + key, kind)
        try:
            return self._build(**values)
        except ValueError as error:
            raise SchemaError(f"{kind} document: {prefix[:-1]}: {error}") from None


def _check(cls, fields: dict, exempt, renames: dict, groups: dict) -> set:
    """Fail the import when a declaration and its dataclass disagree;
    return the dataclass fields that have defaults."""
    declared = {name for name, codec in fields.items() if codec.decode is not None}
    names = {field.name for field in dataclasses.fields(cls)}
    derived = set(fields) - declared
    grouped = {name for group in groups for name in group}
    wrong = {
        "neither declared nor exempt": names - declared - set(exempt),
        "declared but not dataclass fields": (declared | set(exempt)) - names,
        "derived but not computed": {n for n in derived if n in names or not hasattr(cls, n)},
        "renamed or grouped but not declared": (set(renames) | grouped) - declared,
        "grouped with an encoder": {n for n in grouped & declared if fields[n].encode},
    }
    found = [f"{sorted(bad)} {what}" for what, bad in wrong.items() if bad]
    if found:
        raise TypeError(f"wire declaration of {cls.__name__}: {'; '.join(found)}")
    unset = dataclasses.MISSING
    return {f.name for f in dataclasses.fields(cls)
            if f.default is not unset or f.default_factory is not unset}


def _codec(codec) -> Codec:
    return codec.codec if isinstance(codec, Wire) else codec


def nullable(codec) -> Codec:
    """``codec``, also reading and writing ``null``."""
    codec = _codec(codec)
    write = codec.encode
    if write is not None:
        codec = codec._replace(encode=lambda value: None if value is None else write(value))
    return codec._replace(nullable=True)


def array(item) -> Codec:
    """A JSON array of ``item`` values, decoded to a tuple.  An item of a
    declared type is named by its index (``field[3]``), a scalar item as
    ``field[*]``."""
    indexed = isinstance(item, Wire)
    read, write = _codec(item)[:2]

    def decode(value, path, kind):
        values = _array(value, path, kind)
        if indexed:
            return tuple(read(v, f"{path}[{i}]", kind) for i, v in enumerate(values))
        path = f"{path}[*]"
        return tuple(read(v, path, kind) for v in values)

    return Codec(decode, list if write is None else lambda values: list(map(write, values)))


def mapping(read, write) -> Codec:
    """A JSON object handed whole to ``read``; ``write`` encodes it."""
    return Codec(lambda value, path, kind: read(_object(value, path, kind)), write)


def _mix_document(mix: "tuple[int, int, int]") -> dict:
    return {"ncpu": mix[0], "nmem": mix[1], "nio": mix[2]}


def _decode_mix(value, path: str, kind: str) -> "tuple[int, int, int]":
    mix = _object(value, path, kind)
    keys = ("ncpu", "nmem", "nio")
    return tuple(_integer(_require(mix, k, kind), f"{path}.{k}", kind) for k in keys)


def _positive(value, path: str, kind: str) -> float:
    value = _number(value, path, kind)
    if value <= 0:
        raise SchemaError(f"{kind} document: {path!r} must be positive or null, got {value}")
    return value


def _non_empty(value, path: str, kind: str) -> str:
    if not _string(value, path, kind):
        raise SchemaError(f"{kind} document: {path!r} must be non-empty")
    return value


def _workload_class(value, path: str, kind: str) -> WorkloadClass:
    name = _string(value, path, kind)
    try:
        return WorkloadClass(name)
    except ValueError:
        raise SchemaError(
            f"{kind} document: unknown {path} {name!r}; expected one of "
            f"{sorted(c.value for c in WorkloadClass)}"
        ) from None


NUMBER = Codec(_number)
INTEGER = Codec(_integer)
BOOLEAN = Codec(_boolean)
STRING = Codec(_string)
#: A (ncpu, nmem, nio) mix, as an object of three integers.
MIX = Codec(_decode_mix, _mix_document)
#: A deadline in seconds: positive, or null for none.
DEADLINE = nullable(Codec(_positive))
#: An encode-only value the dataclass computes (a property).
DERIVED = Codec(None)
#: The codec of each search counter, by its annotation.
_BY_ANNOTATION = {"int": INTEGER, "bool": BOOLEAN, "float": NUMBER,
                  "float | None": nullable(NUMBER)}


class EvaluationDocument(NamedTuple):
    """Decoded evaluation cells: outcomes plus trace provenance (no
    campaign attached); re-encoding it reproduces the input document."""

    outcomes: "tuple[StrategyOutcome, ...]"
    n_jobs: int
    n_vms: int


_VM_REQUEST = Wire(
    VMRequest,
    {"vm_id": Codec(_non_empty), "workload_class": Codec(_workload_class, attrgetter("value")),
     "max_exec_time_s": DEADLINE},
    kind="vm_request",
)
_ESTIMATE = Wire(
    EstimatedOutcome, {"key": MIX, "time_s": NUMBER, "energy_j": NUMBER, "exact": BOOLEAN}
)
_ASSIGNMENT = Wire(
    BlockAssignment,
    {"server_id": STRING, "block": MIX, "vm_ids": array(STRING), "combined_key": MIX,
     "estimate": _ESTIMATE},
    renames={"combined_key": "combined"},
)
_PROVENANCE = Wire(
    AllocationProvenance,
    {f.name: _BY_ANNOTATION[f.type] for f in dataclasses.fields(AllocationProvenance)},
)
_PLAN = Wire(
    AllocationPlan,
    {"assignments": array(_ASSIGNMENT), "alpha": NUMBER, "score": NUMBER,
     "qos_satisfied": BOOLEAN,
     # Totals are recomputed from the assignments, never read back, so
     # a hand-edited document cannot carry inconsistent ones.
     "estimated_makespan_s": DERIVED, "estimated_energy_j": DERIVED, "n_vms": DERIVED,
     "search_provenance": nullable(_PROVENANCE), "alpha_carbon": nullable(NUMBER),
     "estimated_carbon_g": nullable(NUMBER), "estimated_cost": nullable(NUMBER)},
    kind="plan",
    # Carbon fields cross the wire only when the plan was scored with a
    # live carbon context: 2-way plans keep their pre-carbon bytes.
    groups={("alpha_carbon", "estimated_carbon_g", "estimated_cost"):
            attrgetter("alpha_carbon")},
)
_OUTCOME = Wire(
    StrategyOutcome,
    {"cloud": STRING, "strategy": STRING, "makespan_s": NUMBER, "energy_j": NUMBER,
     "sla_violation_pct": NUMBER, "mean_response_s": NUMBER,
     "max_queue_length": INTEGER, "carbon_g": NUMBER, "cost": NUMBER},
    exempt=("wall_time_s",),  # host-volatile; 0.0 on decode
    # Carbon/cost totals exist only in carbon-scenario runs; emitting
    # them conditionally keeps signal-free documents byte-identical.
    groups={("carbon_g", "cost"): lambda outcome: outcome.carbon_g or outcome.cost},
)
_EVALUATION = Wire(
    EvaluationResult,
    {"outcomes": array(_OUTCOME), "n_jobs": INTEGER, "n_vms": INTEGER},
    kind="evaluation",
    exempt=("campaign",),  # reproducible from the seed, and large
    build=EvaluationDocument,
)
_FAULT_RECORD = Wire(
    FaultRecord,
    {"time_s": NUMBER, "kind": STRING, "target": STRING, "vm_ids": array(STRING),
     "lost_work_s": NUMBER, "applied": BOOLEAN, "detail": STRING},
    kind="fault_record",
)

vm_request_document = _VM_REQUEST.document
decode_vm_request = _VM_REQUEST.decode
#: A plan's canonical document: ``allocate --format json`` and the
#: service's batch responses embed exactly this.
plan_document = _PLAN.document
decode_plan = _PLAN.decode
#: The Figs. 5-7 cells of an ``EvaluationResult`` or an
#: :class:`EvaluationDocument`; decoded outcomes compare bit-equal.
evaluation_document = _EVALUATION.document
decode_evaluation = _EVALUATION.decode
#: One fault-log entry (what actually happened).
fault_record_document = _FAULT_RECORD.document
#: An array of versioned VM-request documents (admissions, session queues).
REQUEST_DOCUMENTS = array(
    Codec(lambda value, path, kind: decode_vm_request(value), vm_request_document)
)


# -- fault specs and records -------------------------------------------


def fault_spec_document(spec: FaultSpec) -> dict:
    """Encode a :class:`~repro.faults.FaultSpec` (the CLI's ``--faults`` echo)."""
    return stamp(spec.to_dict())


def decode_fault_spec(document) -> FaultSpec:
    """Decode a fault-spec document: the version check, then
    :meth:`FaultSpec.from_dict`'s validation (its
    :class:`~repro.common.errors.FaultSpecError` is a ``ValueError``)."""
    kind = "fault_spec"
    document = check_version(document, kind)
    body = {key: value for key, value in document.items() if key != "schema_version"}
    return FaultSpec.from_dict(body)
