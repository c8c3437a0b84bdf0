"""The rule registry.

Rules self-register at import time through the :func:`rule` decorator;
:mod:`repro.analysis.rules` imports every rule module so that loading
the package populates the catalog.  Two scopes exist:

``file``
    The checker receives one :class:`~repro.analysis.engine.FileContext`
    and yields violations for that file.  Most rules are file-scoped.
``project``
    The checker receives the full list of contexts once per run --
    needed by whole-graph properties (import cycles).

Rule ids are short kebab-case strings (``determinism-wallclock``);
they double as the suppression-comment vocabulary, so they are part of
the repo's public surface and must stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

#: Valid scopes for a rule checker.
SCOPES = ("file", "project")


@dataclass(frozen=True)
class Rule:
    """One registered invariant check."""

    id: str
    summary: str
    scope: str
    check: Callable[..., Iterable]
    #: True for rules the engine itself emits (stale suppressions):
    #: registered so the id is part of the suppression/reporting
    #: vocabulary, but ``check`` is never called.
    engine_driven: bool = False

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ValueError(f"rule {self.id!r}: scope must be one of {SCOPES}, got {self.scope!r}")


_RULES: dict[str, Rule] = {}


def rule(rule_id: str, summary: str, scope: str = "file", engine_driven: bool = False):
    """Class/function decorator registering ``fn`` as a rule checker."""

    def decorate(fn: Callable[..., Iterable]) -> Callable[..., Iterable]:
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _RULES[rule_id] = Rule(
            id=rule_id, summary=summary, scope=scope, check=fn, engine_driven=engine_driven
        )
        return fn

    return decorate


def get_rule(rule_id: str) -> Rule:
    """Look a rule up by id; raises ``KeyError`` for unknown ids."""
    return _RULES[rule_id]


def iter_rules() -> Iterator[Rule]:
    """All registered rules in id order (deterministic output order)."""
    for rule_id in sorted(_RULES):
        yield _RULES[rule_id]


def rule_ids() -> frozenset[str]:
    """The set of known rule ids (the suppression vocabulary)."""
    return frozenset(_RULES)
