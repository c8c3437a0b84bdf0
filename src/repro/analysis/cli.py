"""The linter's command line, defined once.

Reachable three ways, all running this parser and handler:

* ``repro lint [paths...]`` (the package CLI hands its argv here)
* ``python -m repro.analysis [paths...]``
* ``python scripts/lint.py [paths...]``

With no paths the installed ``repro`` package tree itself is linted --
the acceptance gate ``python -m repro.analysis src/repro`` simply
names it explicitly.  Accepting a finding takes a ``# repro: allow``
directive at its site (:mod:`repro.analysis.suppress`).  Exit status:
0 clean, 1 findings, 2 usage error (argparse), matching the other
``repro`` subcommands; flag values are validated by the
``repro.common.validation`` ``parse_*`` family, so junk flags exit 2
with the same message style everywhere.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import run_lint
from repro.analysis.registry import get_rule, iter_rules
from repro.analysis.reporters import to_json, to_sarif, to_text
from repro.analysis import rules as _rules  # noqa: F401  (registers the catalog)
from repro.common.validation import parse_lint_format, typed_flag

_RENDERERS = {"text": to_text, "json": to_json, "sarif": to_sarif}


def default_target() -> Path:
    """The installed ``repro`` package directory (lint ourselves)."""
    return Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repro invariant linter: determinism, layering, API surface, float discipline",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        type=typed_flag(parse_lint_format),
        default="text",
        metavar="{text,json,sarif}",
        help="report style: human text (default), one JSON document, "
        "or a SARIF 2.1.0 log for code-scanning UIs",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="restrict the run to a comma-separated subset of rule ids",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id: summary) and exit",
    )
    return parser


def _selected_rules(parser: argparse.ArgumentParser, text: str) -> list[str]:
    """``--rules``: ids that check something, or a usage error."""
    selected = [part.strip() for part in text.split(",") if part.strip()]
    if not selected:
        parser.error(f"--rules {text!r} names no rule id (see --list-rules)")
    try:
        chosen = [get_rule(rule_id) for rule_id in selected]
    except KeyError as exc:
        parser.error(f"unknown rule id {exc.args[0]!r} (see --list-rules)")
    if all(rule.engine_driven for rule in chosen):
        parser.error(
            f"--rules {text!r} names only engine-driven rules, which a "
            f"subset run never checks; run the full catalog instead"
        )
    return selected


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.id}: {rule.summary}")
        return 0
    rules = None if args.rules is None else _selected_rules(parser, args.rules)
    try:
        result = run_lint(args.paths or [default_target()], rules=rules)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    print(_RENDERERS[args.format](result))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
