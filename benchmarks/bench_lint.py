"""Lint benchmark: whole-repo full-catalog wall time.

The project-scoped rules (taint, dead exports, dead functions) build a
symbol table and call graph over every file in the repository; this
benchmark keeps that affordable.  Records:

* **cold** -- full-catalog run over ``src/repro`` plus every consumer
  directory with the parsed-file cache cleared first: what a fresh CI
  process pays;
* **warm** -- the same run again in-process, ASTs served from the
  engine cache: what the second gate in one pytest session pays.

Writes ``BENCH_lint.json`` next to this file in the one BENCH format
(``benchfile.py``); its gate holds the cold median under an absolute
ceiling of 10 s (a lint gate that takes longer than the test suite
stops being run).

Run:
    PYTHONPATH=src python benchmarks/bench_lint.py [--repeats N]
"""

from __future__ import annotations

import argparse
import statistics
import time
from pathlib import Path

from repro.analysis import engine, run_lint

import benchfile
from benchfile import metric

OUTPUT = Path(__file__).resolve().parent / "BENCH_lint.json"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Same scope as tests/analysis/test_codebase_clean.py's whole-repo gate.
LINT_PATHS = ("src/repro", "tests", "examples", "scripts", "benchmarks")
FIXTURE_EXCLUDE = ("tests/analysis/fixtures",)
COLD_CEILING_S = 10.0


def run_once(clear_cache: bool) -> tuple:
    if clear_cache:
        engine._CONTEXT_CACHE.clear()
    paths = [REPO_ROOT / name for name in LINT_PATHS]
    t0 = time.perf_counter()
    result = run_lint(paths, exclude=FIXTURE_EXCLUDE)
    return time.perf_counter() - t0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repetitions per mode (default 3)"
    )
    args = parser.parse_args(argv)

    cold, warm = [], []
    checked_files = n_findings = 0
    for _ in range(args.repeats):
        elapsed, result = run_once(clear_cache=True)
        cold.append(elapsed)
        checked_files = result.checked_files
        n_findings = len(result.violations)
        elapsed, _ = run_once(clear_cache=False)
        warm.append(elapsed)

    metrics = [
        metric("cold", "s", "lower", cold, gate={"max": COLD_CEILING_S}),
        metric("warm", "s", "lower", warm),
        metric("checked_files", "count", "higher", [checked_files]),
        # Findings after suppressions.
        metric("findings_raw", "count", "lower", [n_findings]),
    ]
    config = {"paths": list(LINT_PATHS), "exclude": list(FIXTURE_EXCLUDE),
              "repeats": args.repeats}
    benchfile.write(OUTPUT, "bench_lint", config, metrics)
    print(
        f"lint: {checked_files} files, {n_findings} findings; "
        f"cold p50 {statistics.median(cold):.2f}s, "
        f"warm p50 {statistics.median(warm):.2f}s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
