"""Suppression hygiene: directives must name real rules and parse.

A suppression comment with a typoed rule id matches nothing and
silently keeps reporting (or worse: the author believes the finding is
handled).  This rule closes the loop by validating every directive
against the live registry, and flags ``# repro:`` comments that do not
parse as directives at all.

A further hygiene rule is registered here but *driven by the engine*
(its ``check`` never runs), since the engine alone knows which
violations fired before suppression: ``suppression-stale`` -- a
directive names a rule that no longer fires on the line(s) it shields.
Dead suppressions read as "this is a known measurement point" when
nothing of the sort remains, and would silently absorb the next
regression on that line.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.registry import rule, rule_ids


@rule(
    "suppression-unknown-rule",
    "suppression comments must name registered rule ids and parse cleanly",
)
def check_suppressions(ctx) -> Iterator:
    known = rule_ids()
    for directive in ctx.suppressions.directives:
        for rule_id in directive.rule_ids:
            if rule_id not in known:
                yield ctx.violation(
                    "suppression-unknown-rule",
                    directive.line,
                    f"suppression names unknown rule {rule_id!r}; known rules: "
                    f"{', '.join(sorted(known))}",
                )
    for line in ctx.suppressions.malformed:
        yield ctx.violation(
            "suppression-unknown-rule",
            line,
            "malformed '# repro:' comment; expected "
            "'# repro: allow <rule-id>[, <rule-id>...] [-- justification]' "
            "or 'allow-file'",
        )


@rule(
    "suppression-stale",
    "suppression directives must shield a rule that actually fires there "
    "(engine-driven; only checked on full-catalog runs)",
    engine_driven=True,
)
def _stale_suppressions_are_engine_driven(ctx) -> Iterator:
    return iter(())
