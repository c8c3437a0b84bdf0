# repro-fixture-module: repro.core.allocator
"""Project-index fixture: a dataclass whose fields the index records.

Impersonates ``repro.core.allocator`` and declares a ``VMRequest`` twin
with four fields, one more than the real class, so a test can tell the
fixture's field table from the real module's.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class VMRequest:
    vm_id: str
    workload_class: str
    max_exec_time_s: float | None = None
    priority_boost: float = 0.0
