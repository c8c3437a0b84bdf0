"""The paper's primary contribution: the empirical allocation model and
the proactive application-centric VM allocation algorithm (Sect. III).

* :mod:`~repro.core.model` -- the model database: Table II records,
  binary-search lookup, proportional estimation for off-grid mixes.
* :mod:`~repro.core.partitions` -- type-aware multiset partitions, the
  allocator's search space (Orlov's set partitions collapsed by
  workload class).
* :mod:`~repro.core.scoring` -- the alpha trade-off objective.
* :mod:`~repro.core.allocator` -- the brute-force proactive allocator
  with QoS constraints (streamed and branch-and-bound pruned, with a
  retained naive reference path).
* :mod:`~repro.core.estimatecache` -- the dense O(1) estimate grid and
  the search's cache/prune counters.
* :mod:`~repro.core.plan` -- allocation plans (the algorithm's output).
"""

from repro.core.estimatecache import BoundTables, CacheStats, EstimateGrid, grid_for
from repro.core.model import EstimatedOutcome, ModelDatabase
from repro.core.partitions import type_partitions
from repro.core.scoring import ScoreWeights, score_candidates
from repro.core.plan import AllocationPlan, AllocationProvenance, BlockAssignment
from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest

__all__ = [
    "BoundTables",
    "CacheStats",
    "EstimateGrid",
    "grid_for",
    "EstimatedOutcome",
    "ModelDatabase",
    "type_partitions",
    "ScoreWeights",
    "score_candidates",
    "AllocationPlan",
    "AllocationProvenance",
    "BlockAssignment",
    "ProactiveAllocator",
    "ServerState",
    "VMRequest",
]
