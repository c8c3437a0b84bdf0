"""Allocation-as-a-service: the long-lived HTTP front end.

The library's one-shot :class:`~repro.core.allocator.ProactiveAllocator`
call becomes a multi-tenant service here (ROADMAP,
"Allocation-as-a-service"):

:mod:`repro.service.schema`
    The versioned wire format (``schema_version: "1"``): typed
    to/from-JSON converters for VM requests, allocation plans,
    evaluation results, fault specs and error envelopes.  The CLI's
    ``--format json`` output and every HTTP response are built from
    this one module, so library, CLI and service cannot drift apart.
:mod:`repro.service.session`
    The deterministic session state machine: streaming admission,
    ordinal-window coalescing into allocator calls, snapshot/restore,
    and fault application (server crashes evict and re-queue VMs).
:mod:`repro.service.server`
    The stdlib-asyncio HTTP server (``repro serve``): routes, the
    per-session batching loop, backpressure (bounded queue -> 429) and
    queue-depth/latency metrics through :mod:`repro.obs`.

See DESIGN.md, "Service architecture".
"""

from repro.common.lazy import lazy_exports

__all__ = [
    "SCHEMA_VERSION",
    "vm_request_document",
    "decode_vm_request",
    "plan_document",
    "decode_plan",
    "evaluation_document",
    "decode_evaluation",
    "fault_spec_document",
    "decode_fault_spec",
    "error_envelope",
    "ServiceConfig",
    "Service",
    "BackgroundService",
    "serve",
    "Session",
    "SessionConfig",
    "BatchRecord",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.service.schema": (
            "SCHEMA_VERSION",
            "decode_evaluation",
            "decode_fault_spec",
            "decode_plan",
            "decode_vm_request",
            "error_envelope",
            "evaluation_document",
            "fault_spec_document",
            "plan_document",
            "vm_request_document",
        ),
        "repro.service.server": (
            "BackgroundService",
            "Service",
            "ServiceConfig",
            "serve",
        ),
        "repro.service.session": ("BatchRecord", "Session", "SessionConfig"),
    },
)
