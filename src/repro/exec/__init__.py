"""Deterministic multiprocess execution engine.

``pmap`` fans independent tasks over a spawn-safe process pool and
guarantees results -- values, metrics snapshots and deterministic
traces -- bit-identical to a serial run at any worker count.  See
DESIGN.md, "Parallel execution", for the determinism contract and
:mod:`repro.exec.engine` for the scheduler internals.
"""

from repro.common.lazy import lazy_exports

__all__ = [
    "pmap",
    "mapper",
    "task_seeds",
    "chunk_spans",
    "CHUNKS_PER_WORKER",
    "MAX_TASK_ATTEMPTS",
    "retry_backoff_s",
    "RESCUES_TOTAL",
    "TaskCapture",
    "merge_capture",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.exec.engine": (
            "CHUNKS_PER_WORKER",
            "MAX_TASK_ATTEMPTS",
            "chunk_spans",
            "mapper",
            "pmap",
            "retry_backoff_s",
            "task_seeds",
        ),
        "repro.exec.merge": ("RESCUES_TOTAL", "TaskCapture", "merge_capture"),
    },
)
