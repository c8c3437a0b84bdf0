"""Reporters: render a :class:`~repro.analysis.engine.LintResult`.

Three formats:

* ``text`` -- one ``path:line:col: rule-id: message`` per finding plus
  a summary line; what a human reads in a terminal.
* ``json`` -- one document with a stable schema for CI gates::

    {
      "checked_files": 93,
      "n_violations": 0,
      "tool": "repro.analysis",
      "version": 1,
      "violations": [
        {"col": 0, "line": 12, "message": "...", "path": "...", "rule": "..."}
      ]
    }

* ``sarif`` -- a minimal SARIF 2.1.0 log (one run, one result per
  finding, the full rule catalog as ``tool.driver.rules``) for code
  scanning UIs that ingest the standard format.

Keys are emitted sorted and violations are ordered by
``(path, line, col, rule)``, so equal trees produce byte-identical
reports -- the same determinism discipline the linter enforces.
"""

from __future__ import annotations

import json

#: Schema version of the JSON report; bump on breaking key changes.
JSON_SCHEMA_VERSION = 1

#: The SARIF spec version this reporter emits (and its schema URI).
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"


def to_text(result) -> str:
    """Human-readable report, one line per finding."""
    lines = [violation.render() for violation in result.violations]
    noun = "violation" if len(result.violations) == 1 else "violations"
    lines.append(f"{len(result.violations)} {noun} in {result.checked_files} checked file(s)")
    return "\n".join(lines)


def to_json(result) -> str:
    """Machine-readable report with sorted keys and stable ordering."""
    document = {
        # Literal mirror of repro.service.schema.SCHEMA_VERSION: the
        # analysis layer sits below service and must not import up, but
        # every JSON document the repo emits carries the wire version
        # (pinned equal in tests/analysis/test_reporters.py).
        "schema_version": "1",
        "version": JSON_SCHEMA_VERSION,
        "tool": "repro.analysis",
        "checked_files": result.checked_files,
        "n_violations": len(result.violations),
        "violations": [
            {
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "message": violation.message,
            }
            for violation in result.violations
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def to_sarif(result) -> str:
    """Minimal SARIF 2.1.0 log: byte-stable across equal runs.

    The document carries the complete rule catalog (not just the rules
    that fired) so a scanning UI can show what was checked; results
    reference rules by id and array index.  URIs are the engine's
    display paths (CWD-relative when inside it), emitted POSIX-style.
    """
    # Deferred import: reporters must stay importable without dragging
    # the rule catalog in for plain text/json rendering paths.
    import repro.analysis.rules  # noqa: F401  (registers the catalog)

    from repro.analysis.engine import PARSE_ERROR
    from repro.analysis.registry import iter_rules

    catalog = list(iter_rules())
    rule_index = {rule.id: i for i, rule in enumerate(catalog)}
    rules = [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.summary},
        }
        for rule in catalog
    ]
    # parse-error is engine vocabulary, not a registry rule.
    rule_index[PARSE_ERROR] = len(rules)
    rules.append(
        {
            "id": PARSE_ERROR,
            "shortDescription": {"text": "the file must parse as Python"},
        }
    )
    results = [
        {
            "ruleId": violation.rule,
            "ruleIndex": rule_index.get(violation.rule, -1),
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": max(violation.line, 1),
                            "startColumn": violation.col + 1,
                        },
                    }
                }
            ],
        }
        for violation in result.violations
    ]
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
