#!/usr/bin/env python3
"""Run the repro invariant linter without setting ``PYTHONPATH``.

Equivalent to ``PYTHONPATH=src python -m repro.analysis`` (or
``repro lint``) from the repo root, but works from anywhere:

    python scripts/lint.py [paths...] [--format {text,json,sarif}]

With no paths it lints this checkout's ``src/repro``.  Exit status: 0
clean, 1 findings, 2 usage error.  See DESIGN.md "Enforced invariants"
for the rule catalog and suppression policy.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis.cli import main  # noqa: E402

if __name__ == "__main__":
    # With no paths the linter defaults to the package it was imported
    # from, which the sys.path insert above pins to this repo's src/.
    sys.exit(main())
