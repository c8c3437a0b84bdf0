"""Reactive VM migration (companion mechanism, paper Sects. I/II).

The paper motivates proactive allocation by the cost of reactive
migration ("minimize the energy costs by improving resource
utilization and by avoiding costly VM migrations"); this extension
implements the reactive controller so the two approaches can be
compared: detect overloaded servers, pick migration candidates, charge
the live-migration overhead, and re-attach VMs elsewhere.
"""

from repro.ext.migration.controller import (
    MigrationDecision,
    MigrationPolicy,
    plan_migrations,
    apply_migrations,
    apply_migrations_collecting,
)
from repro.ext.migration.rebalancer import ReactiveRebalancer

__all__ = [
    "MigrationDecision",
    "MigrationPolicy",
    "plan_migrations",
    "apply_migrations",
    "apply_migrations_collecting",
    "ReactiveRebalancer",
]
