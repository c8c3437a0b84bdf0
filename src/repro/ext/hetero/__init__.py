"""Heterogeneous server hardware (paper Sect. V, future work).

"our planned future research efforts include extending the solution to
be aware of and support heterogeneous server hardware" -- and the paper
notes the database would then need per-platform records ("if multiple
server configurations are used, we should include system
characteristics such as number of CPUs, amount of memory, reference
performance index, etc.").

Here every *server class* (a named :class:`~repro.testbed.spec
.ServerSpec`) gets its own benchmarking campaign and model database;
the core PROACTIVE allocator scores each server through its class's
database (:class:`HeteroProactiveStrategy` only builds that mapping).
"""

from repro.ext.hetero.classes import ServerClass, build_class_databases, default_classes
from repro.ext.hetero.strategy import HeteroProactiveStrategy

__all__ = [
    "ServerClass",
    "build_class_databases",
    "default_classes",
    "HeteroProactiveStrategy",
]
