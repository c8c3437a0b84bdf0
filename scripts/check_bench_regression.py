"""Gate: evaluate every gate declared in the BENCH files.

Reads the BENCH files given on the command line (default: every
``benchmarks/BENCH_*.json``) through the one BENCH format
(``benchmarks/benchfile.py``) and, for each metric that declares a
gate, prints one row:

* ``max`` / ``min`` -- the median of the metric's samples must be at
  most / at least the bound;
* ``equals`` -- every sample must equal the value (identity verdicts,
  always enforced);
* a gate with ``min_cpus`` is reported SKIPPED when the recording
  host's ``host.cpu_count`` is below it -- a process pool cannot beat
  serial on a single-CPU box.

The checker knows no file or metric names and has no thresholds of its
own: the bench that writes a file declares its gates.  To add a gate,
declare it where the bench builds the metric; see DESIGN.md, "BENCH
format".

Exit status: 0 when every gate holds, 1 when any gate fails, 2 (with
one ``error:`` line naming the file and field) when a file cannot be
read or does not follow the format.

Run:
    PYTHONPATH=src python benchmarks/bench_perf_allocator.py   # etc.
    python scripts/check_bench_regression.py [BENCH_FILE ...]
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import benchfile  # noqa: E402  (lives next to the benches it describes)


def judge(entry: dict, cpu_count: int) -> tuple[str, bool]:
    """One printable row for a gated metric and whether it failed."""
    gate, samples = entry["gate"], entry["samples"]
    kind = next(key for key in gate if key in benchfile.GATE_KINDS)
    bound = gate[kind]
    if kind == "equals":
        shown = ", ".join(sorted({str(s).lower() for s in samples}))
        failed = any(sample != bound for sample in samples)
        row = f"{shown} (n={len(samples)})  equals {str(bound).lower()}"
    else:
        median = statistics.median(samples)
        failed = median > bound if kind == "max" else median < bound
        row = f"median {median:.6g} {entry['unit']} (n={len(samples)})  {kind} {bound:.6g}"
    min_cpus = gate.get("min_cpus", 1)
    if cpu_count < min_cpus:
        return (
            f"{row}  SKIPPED (host had {cpu_count} CPU(s); gated at >= {min_cpus})",
            False,
        )
    return f"{row}  {'FAIL' if failed else 'OK'}", failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Evaluate every gate declared in the BENCH files."
    )
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="BENCH files to check (default: every benchmarks/BENCH_*.json)",
    )
    args = parser.parse_args(argv)
    paths = args.files or sorted(BENCH_DIR.glob("BENCH_*.json"))
    if not paths:
        print(f"check_bench_regression: error: no BENCH files in {BENCH_DIR}",
              file=sys.stderr)
        return 2
    try:
        documents = [(path, benchfile.load(path)) for path in paths]
    except benchfile.BenchFileError as error:
        print(f"check_bench_regression: error: {error}", file=sys.stderr)
        return 2

    failures = []
    for path, document in documents:
        cpu_count = document["host"]["cpu_count"]
        for entry in document["metrics"]:
            if "gate" not in entry:
                continue
            row, failed = judge(entry, cpu_count)
            print(f"{path.name}  {entry['name']}: {row}")
            if failed:
                failures.append(f"{path.name}  {entry['name']}: {row}")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        print(
            "\nhint: on a dirty tree, run the invariant linter first --\n"
            "  python scripts/lint.py\n"
            "a layering or determinism violation is a cheaper explanation "
            "for a perf delta than a real regression."
        )
        return 1
    print("\nall gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
