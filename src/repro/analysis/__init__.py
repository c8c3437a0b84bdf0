"""Repo-specific static analysis: the invariant linter.

The reproduction's claims rest on discipline that plain review cannot
enforce at scale: simulated code must never read the wall clock, every
random draw must route through :mod:`repro.common.rng`, layers may only
import downward, the :mod:`repro.api` facade must stay coherent, and
scoring/accounting paths must never compare floats with ``==``.  This
package makes those invariants machine-checked.

It is a small stdlib-``ast`` framework (zero dependencies -- the
environment is offline) plus a catalog of rules encoding this repo's
architecture.  File-scoped rules judge one file at a time:

========================  ==============================================
rule id                   guards
========================  ==============================================
determinism-wallclock     no wall-clock reads in simulated layers
determinism-rng           no stdlib/global-numpy randomness there either
layering-import           the downward-only import matrix
layering-cycle            no module-level import cycles
api-all-resolves          every ``__all__`` name is actually bound
api-facade-import         internals never import through ``repro.api``
float-equality            no ``==``/``!=`` on floats in scoring paths
except-bare               no bare ``except:`` in hot paths
except-swallow            no silently swallowed ``except Exception:``
suppression-unknown-rule  suppression comments name real rules
========================  ==============================================

Project-scoped rules run once over the whole file list, on top of a
shared symbol table (:mod:`repro.analysis.project`) and call graph
(:mod:`repro.analysis.callgraph`):

========================  ==============================================
rule id                   guards
========================  ==============================================
determinism-taint         nondeterminism sources (wall clock, unseeded
                          RNG, ``os.environ``, set iteration) must not
                          reach protected layers through any call path
api-dead-export           ``repro.api.__all__`` entries are referenced
                          by at least one test or example
suppression-stale         (engine-driven) directives shield a rule that
                          still fires there
========================  ==============================================

Violations are suppressed in place with justification comments::

    risky_line()  # repro: allow <rule-id> -- why this one is fine

(or ``# repro: allow-file <rule-id>`` once per file).  A directive is
the only way to accept a finding: an aggregated project-scope finding
is anchored at its first site, so one directive there covers it, and a
directive that stops shielding anything becomes ``suppression-stale``.
See :mod:`repro.analysis.suppress` for the exact grammar and DESIGN.md
"Enforced invariants" for the policy.

Run it as ``python -m repro.analysis src/repro`` or ``repro lint``;
exit status 1 means findings, 2 means usage error.

Apart from the CLI flag helpers in :mod:`repro.common.validation`,
this package imports nothing else from ``repro`` (the linter must be
able to judge a broken tree) -- a constraint the layering matrix
enforces, since the full pass runs over ``src/repro`` including this
directory.
"""

from repro.analysis.engine import (
    FileContext,
    LintResult,
    Violation,
    collect_py_files,
    load_context,
    run_lint,
)
from repro.analysis.registry import Rule, get_rule, iter_rules, rule_ids
from repro.analysis.reporters import to_json, to_sarif, to_text
from repro.analysis import rules as _rules  # noqa: F401  (registers the catalog)

__all__ = [
    "FileContext",
    "LintResult",
    "Rule",
    "Violation",
    "collect_py_files",
    "get_rule",
    "iter_rules",
    "load_context",
    "rule_ids",
    "run_lint",
    "to_json",
    "to_sarif",
    "to_text",
]
