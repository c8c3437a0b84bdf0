"""The lint engine: file collection, parsing, rule dispatch.

A run is::

    result = run_lint([Path("src/repro")])
    for violation in result.violations: ...

Every ``.py`` file under the given paths is parsed once into a
:class:`FileContext` (source, AST, module name, suppression
directives); file-scoped rules then run per context and project-scoped
rules once over the whole list.  Suppressions are applied centrally
here, never inside rules, so a rule cannot forget to honour them.

Module names are derived from the filesystem (walking up while
``__init__.py`` exists), which is what ties a file to its layer.
Golden fixtures live outside the package tree, so they can pin the
module identity they are pretending to have with a header comment::

    # repro-fixture-module: repro.sim.badclock

Files that fail to decode or parse yield a single ``parse-error``
violation instead of aborting the run: the linter must be able to judge
a broken tree.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.registry import get_rule, iter_rules, rule_ids
from repro.analysis.suppress import Suppressions, scan

_FIXTURE_MODULE_RE = re.compile(r"^#\s*repro-fixture-module:\s*([\w.]+)\s*$", re.MULTILINE)

#: Pseudo rule id for unparseable files; not a registry rule (it cannot
#: be usefully suppressed) but part of the reporter vocabulary.
PARSE_ERROR = "parse-error"

#: Parsed-file cache keyed by (path, mtime_ns, size): repeated runs in
#: one process (the CLI after the gate, per-rule fixture tests, the
#: bench harness) re-parse nothing that has not changed on disk.
#: Contexts are treated as immutable by every rule, so sharing is safe.
_CONTEXT_CACHE: dict = {}
_CONTEXT_CACHE_LIMIT = 8192


class ContextList(list):
    """The context list handed to project-scoped rules.

    A plain ``list`` plus two attachment points: the whole-program
    indexes (:func:`repro.analysis.project.get_project`,
    :func:`repro.analysis.callgraph.get_call_graph`) cache themselves
    here, so every project rule in one run shares one symbol table and
    one call graph.
    """

    _project = None
    _call_graph = None


@dataclass(frozen=True)
class Violation:
    """One finding: a rule broken at a file position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass
class FileContext:
    """Everything a rule may want to know about one file."""

    path: Path
    display_path: str
    module: str
    source: str
    tree: ast.Module
    suppressions: Suppressions = field(default_factory=Suppressions)

    def violation(self, rule: str, node, message: str) -> Violation:
        """Build a violation anchored at ``node`` (or a plain line int)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line, col = node.lineno, node.col_offset
        return Violation(rule=rule, path=self.display_path, line=line, col=col, message=message)


@dataclass
class LintResult:
    """The outcome of one run: findings plus coverage counters."""

    violations: list
    checked_files: int

    @property
    def ok(self) -> bool:
        return not self.violations


def module_name_for(path: Path) -> str:
    """Derive the dotted module name from the package layout on disk."""
    path = path.resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    parts.reverse()
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _display_path(path: Path) -> str:
    """Relative to the CWD when inside it (stable in CI logs), else absolute."""
    resolved = path.resolve()
    try:
        return os.path.relpath(resolved)
    except ValueError:  # different drive (Windows) -- keep absolute
        return str(resolved)


def load_context(path: Path, module: str | None = None) -> FileContext | Violation:
    """Parse one file; returns a ``parse-error`` violation on failure.

    ``module`` overrides the filesystem-derived module name; a
    ``# repro-fixture-module:`` header comment does the same from
    inside the file (used by the golden fixtures).
    """
    path = Path(path)
    cache_key = None
    try:
        stat = path.stat()
        cache_key = (str(path.resolve()), stat.st_mtime_ns, stat.st_size, module)
    except OSError:
        pass  # unreadable/virtual path: fall through, let the open raise
    if cache_key is not None:
        cached = _CONTEXT_CACHE.get(cache_key)
        if cached is not None:
            return cached
    display = _display_path(path)
    try:
        # Decode as the interpreter does: a PEP 263 coding cookie (or a
        # BOM) names the encoding, UTF-8 otherwise.
        with tokenize.open(path) as handle:
            source = handle.read()
        tree = ast.parse(source, filename=str(path))
    except UnicodeDecodeError as exc:
        loaded: FileContext | Violation = Violation(
            rule=PARSE_ERROR,
            path=display,
            line=1,
            col=0,
            message=f"file does not decode: {exc}",
        )
    except SyntaxError as exc:  # also a bad or unknown coding cookie
        loaded = Violation(
            rule=PARSE_ERROR,
            path=display,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
        )
    else:
        if module is None:
            match = _FIXTURE_MODULE_RE.search(source)
            module = match.group(1) if match else module_name_for(path)
        loaded = FileContext(
            path=path,
            display_path=display,
            module=module,
            source=source,
            tree=tree,
            suppressions=scan(source),
        )
    if cache_key is not None:
        if len(_CONTEXT_CACHE) >= _CONTEXT_CACHE_LIMIT:
            _CONTEXT_CACHE.clear()
        _CONTEXT_CACHE[cache_key] = loaded
    return loaded


def collect_py_files(paths: Sequence[Path], exclude: Sequence[str] = ()) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    ``exclude`` drops files whose resolved POSIX path contains any of
    the given substrings (``"tests/analysis/fixtures"`` keeps the
    module-impersonating golden fixtures out of whole-repo passes).
    """
    seen: set[Path] = set()
    ordered: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            if exclude and any(pattern in resolved.as_posix() for pattern in exclude):
                continue
            ordered.append(candidate)
    return ordered


def _stale_suppression_findings(contexts, fired, fired_rules_by_path):
    """Directives shielding a rule that did not fire there (pre-filter)."""
    known = rule_ids()
    engine_driven = frozenset(r.id for r in iter_rules() if r.engine_driven)
    for context in contexts:
        path_rules = fired_rules_by_path.get(context.display_path, frozenset())
        for directive in context.suppressions.directives:
            shielded = (
                (directive.line, directive.line + 1)
                if directive.standalone
                else (directive.line,)
            )
            for rule_id in directive.rule_ids:
                if rule_id not in known or rule_id in engine_driven:
                    continue  # unknown ids are suppression-unknown-rule's case
                if directive.kind == "allow-file":
                    used = rule_id in path_rules
                    scope_text = "anywhere in this file"
                else:
                    used = any(
                        (context.display_path, line, rule_id) in fired
                        for line in shielded
                    )
                    scope_text = "on the shielded line"
                if not used:
                    yield context.violation(
                        "suppression-stale",
                        directive.line,
                        f"suppression for {rule_id!r} is stale: the rule no "
                        f"longer fires {scope_text} -- remove the directive "
                        f"(or re-justify what it now hides)",
                    )


def run_lint(
    paths: Sequence[Path],
    rules: Iterable[str] | None = None,
    exclude: Sequence[str] = (),
) -> LintResult:
    """Lint every ``.py`` file under ``paths``.

    ``rules`` optionally restricts the run to a subset of rule ids
    (used by the per-rule fixture tests); unknown ids raise
    ``KeyError`` immediately rather than silently checking nothing.
    Full-catalog runs (``rules=None``) additionally audit the
    suppression comments themselves: a directive whose rule did not
    fire on its line becomes ``suppression-stale``.  ``exclude`` drops
    files by path substring.
    """
    # Deferred on purpose: pulling the catalog in at module scope would
    # put the engine on an import cycle through the package root -- the
    # exact shape layering-cycle exists to forbid.
    import repro.analysis.rules  # noqa: F401  (registers the catalog)

    if rules is not None:
        selected = frozenset(rules)
        for rule_id in selected:
            get_rule(rule_id)  # KeyError on typos
    else:
        selected = rule_ids()

    contexts = ContextList()
    violations: list[Violation] = []
    files = collect_py_files(paths, exclude=exclude)
    for path in files:
        loaded = load_context(path)
        if isinstance(loaded, Violation):
            violations.append(loaded)
        else:
            contexts.append(loaded)

    by_path = {context.display_path: context for context in contexts}
    #: (path, line, rule) of every pre-suppression finding, plus the
    #: per-file rule sets -- the stale-suppression audit's evidence.
    fired: set = set()
    fired_rules_by_path: dict = {}

    def admit(found) -> None:
        for violation in found:
            fired.add((violation.path, violation.line, violation.rule))
            fired_rules_by_path.setdefault(violation.path, set()).add(violation.rule)
            context = by_path.get(violation.path)
            if context is not None and context.suppressions.is_suppressed(
                violation.rule, violation.line
            ):
                continue
            violations.append(violation)

    for rule in iter_rules():
        if rule.id not in selected or rule.engine_driven:
            continue
        if rule.scope == "file":
            admit(v for context in contexts for v in rule.check(context))
        else:
            admit(rule.check(contexts))

    if rules is None:
        # Only a full-catalog run can judge staleness: under a subset,
        # every directive for an unselected rule would look unused.
        admit(_stale_suppression_findings(contexts, fired, fired_rules_by_path))

    violations.sort(key=Violation.sort_key)
    return LintResult(violations=violations, checked_files=len(files))
