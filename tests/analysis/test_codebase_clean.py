"""The tier-1 gate: the shipped tree satisfies every invariant.

This is the test that turns the linter from advice into enforcement --
``pytest -x -q`` fails the moment anyone adds a wall-clock read to the
simulator, an upward import, a facade leak, a float ``==`` to a
scoring path, a nondeterministic helper on a protected call path, or a
wire-dataclass field the schema never learns -- unless they suppress
it with a justified ``# repro: allow`` directive that then shows up in
review.

Two scopes run here:

* the package tree alone (``src/repro``);
* the whole repository including its consumers (tests, examples,
  scripts, benchmarks), which activates the reference-dependent audit
  (``api-dead-export``).  The module-impersonating golden fixtures are
  excluded -- they exist to be bad.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis import FileContext, collect_py_files, get_rule, load_context, run_lint
from repro.analysis.engine import ContextList

PACKAGE_DIR = Path(repro.__file__).resolve().parent
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Repo directories that consume the package (enables the dead-code
#: audits) and must themselves stay invariant-clean.
CONSUMER_DIRS = ("tests", "examples", "scripts", "benchmarks")

#: The golden fixtures impersonate real modules and violate rules on
#: purpose; every whole-repo pass excludes them.
FIXTURE_EXCLUDE = ("tests/analysis/fixtures",)


def test_package_tree_is_invariant_clean():
    result = run_lint([PACKAGE_DIR])
    assert result.checked_files > 90  # the whole package, not a subset
    assert result.ok, "\n".join(
        ["the repro package violates its own invariants:"]
        + [violation.render() for violation in result.violations]
    )


def test_whole_repo_with_consumers_is_invariant_clean():
    paths = [PACKAGE_DIR] + [REPO_ROOT / name for name in CONSUMER_DIRS]
    result = run_lint(paths, exclude=FIXTURE_EXCLUDE)
    assert result.checked_files > 150
    assert result.ok, "\n".join(
        ["the repository violates its own invariants:"]
        + [violation.render() for violation in result.violations]
    )


def test_taint_directives_sanction_the_two_measurement_points():
    # Sanctioned taint is reviewed debt, not a dumping ground: before
    # suppression the rule finds precisely the two long-standing
    # measurement points (the anytime Deadline's monotonic read, the
    # simulator's placement-latency histogram), a directive silences
    # each, and no other determinism-taint directive exists.
    contexts = ContextList(load_context(path) for path in collect_py_files([PACKAGE_DIR]))
    assert all(isinstance(context, FileContext) for context in contexts)
    raw = list(get_rule("determinism-taint").check(contexts))
    by_name = {Path(v.path).name: v for v in raw}
    assert len(raw) == 2
    assert set(by_name) == {"anytime.py", "datacenter.py"}
    assert "time.monotonic()" in by_name["anytime.py"].message
    assert "time.perf_counter()" in by_name["datacenter.py"].message

    shielded = set()
    for context in contexts:
        for directive in context.suppressions.directives:
            if "determinism-taint" in directive.rule_ids:
                assert directive.kind == "allow", directive
                line = directive.line + 1 if directive.standalone else directive.line
                shielded.add((context.display_path, line))
    assert shielded == {(v.path, v.line) for v in raw}


def test_linter_lints_itself():
    result = run_lint([PACKAGE_DIR / "analysis"])
    assert result.ok, "\n".join(violation.render() for violation in result.violations)
