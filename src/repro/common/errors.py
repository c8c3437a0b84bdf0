"""Exception hierarchy for the :mod:`repro` library.

Every exception raised intentionally by the library derives from
:class:`ReproError` so that callers can catch library failures without
masking programming errors (``TypeError``/``ValueError`` raised by
argument validation are allowed to propagate as-is when they indicate
caller bugs; domain failures use this hierarchy).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed with an inconsistent configuration.

    Examples: a server specification with zero CPU capacity, a campaign
    plan whose VM-count ceiling is smaller than one, or an experiment
    config whose cloud sizes are non-positive.
    """


class ModelLookupError(ReproError, KeyError):
    """A (Ncpu, Nmem, Nio) key could not be resolved in the model database.

    Derives from :class:`KeyError` so that dictionary-style callers can
    use their usual handling; carries the offending key.
    """

    def __init__(self, key: tuple[int, int, int], message: str | None = None):
        self.key = key
        super().__init__(message or f"no model record for VM mix {key!r}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


class AllocationError(ReproError):
    """Base class for failures of the VM allocation algorithm."""


class InfeasibleAllocationError(AllocationError):
    """No partition/server assignment satisfies the capacity constraints."""


class QoSViolationError(AllocationError):
    """Every feasible allocation violates at least one QoS deadline.

    Raised only when the allocator runs in strict-QoS mode; the relaxed
    mode described in the paper returns the best-effort allocation
    instead.
    """


class TraceFormatError(ReproError):
    """A workload trace (raw grid log or SWF) could not be parsed."""

    def __init__(self, message: str, *, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class UnplaceableJobError(SimulationError):
    """A queued job can never be placed.

    Its strategy rejects it on an idle cluster with no capacity left to
    come back (no failed server, no pending fault): the cluster is too
    small for the job.  Carries the job id and the strategy's name.
    """

    def __init__(self, job_id: int, strategy: str):
        self.job_id = job_id
        self.strategy = strategy
        super().__init__(
            f"strategy {strategy} rejects job {job_id} on an idle cluster; "
            f"it can never be placed"
        )

    def __reduce__(self):
        # Rebuild from the fields, not from the formatted message, so the
        # error survives the trip back from a worker process.
        return (type(self), (self.job_id, self.strategy))


class FaultSpecError(ReproError, ValueError):
    """A fault-injection spec (see :mod:`repro.faults`) is invalid.

    Examples: an unknown fault kind, a negative injection time, a
    slowdown factor below 1, or a server index outside the simulated
    cluster.  Derives from :class:`ValueError` so argument-validation
    call sites (e.g. the CLI's typed-flag helper) can treat it like any
    other bad-input error.
    """


class SchemaError(ReproError, ValueError):
    """A wire document (see :mod:`repro.service.schema`) is invalid.

    Examples: a missing or unsupported ``schema_version``, an unknown
    workload class in a VM-request document, or a field of the wrong
    JSON type.  Derives from :class:`ValueError` so the CLI's
    typed-flag helper and the service's request validation share one
    failure path: the same message exits 2 on the command line and
    becomes the ``invalid_request`` error envelope over HTTP.
    """


class ServiceError(ReproError):
    """Base class for allocation-service failures (see :mod:`repro.service`)."""


class BackpressureError(ServiceError):
    """A session's admission queue is full.

    The HTTP front end maps this to ``429 Too Many Requests``; callers
    should retry after the batching loop drains the queue.
    """


class TransientTaskError(ReproError):
    """A retryable task failure inside the execution engine.

    Raised by (or injected into) worker tasks to model transient
    worker-process failures; :func:`repro.exec.pmap` retries the task
    with deterministic backoff and falls back to in-parent serial
    re-execution as the last resort.  Any other exception type is
    treated as a genuine task error and propagates immediately.
    """
