"""Smoke test of ``scripts/sample_profile.py`` on a tiny simulation.

Runs the profiler in-process on a 600-VM PROACTIVE run, restricted to
``repro.cli.run_sharded``, and reads the report: a header with the
sample counts, the four sections, and shares that are percentages.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "scripts" / "sample_profile.py"

_spec = importlib.util.spec_from_file_location("sample_profile", SCRIPT)
sample_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sample_profile)

HEADER = re.compile(
    r"^# (\d+) samples over [\d.]+ s of CPU \(timer every 1 ms\); "
    r"(\d+) counted \(samples under run_sharded \(sharded\.py:\d+\)\)$"
)
ROW = re.compile(r"^\s*([\d.]+)%\s+(\d+)  (\S.*)$")


def test_report_sections_and_shares(tmp_path, capsys):
    report = tmp_path / "profile.txt"
    code = sample_profile.main(
        [
            "--only", "repro.cli.run_sharded",
            # Deep enough to list run_sharded below the test runner's frames.
            "--top", "100",
            "--output", str(report),
            "--",
            "simulate", "--vm-budget", "600", "--strategy", "PA-0.5", "--qos-factor", "4",
        ]
    )
    assert code == 0
    assert "PA-0.5: makespan=" in capsys.readouterr().out
    lines = report.read_text(encoding="utf-8").splitlines()
    header = HEADER.match(lines[0])
    assert header, lines[0]
    total, counted = int(header.group(1)), int(header.group(2))
    assert 0 < counted <= total

    sections: dict[str, list[tuple[float, int, str]]] = {}
    current = None
    for line in lines[1:]:
        if line.startswith("## "):
            current = line[3:]
            sections[current] = []
        elif line:
            row = ROW.match(line)
            assert row and current, line
            sections[current].append((float(row.group(1)), int(row.group(2)), row.group(3)))
    assert list(sections) == ["self", "inclusive", "lines", "constructors"]
    for rows in sections.values():
        for share, count, _ in rows:
            assert 0.0 < share <= 100.0
            assert abs(share - 100.0 * count / counted) < 0.01
    # Set-up (argument parsing, the model campaign) runs outside the
    # entry point: sampled, but not counted.  Every counted sample is
    # under it, so it holds 100% of the inclusive shares.
    assert counted < total
    entry = [row for row in sections["inclusive"] if row[2].startswith("run_sharded (")]
    assert entry == [(100.0, counted, entry[0][2])]
    # Self shares rank descending; each counted sample has one self frame.
    shares = [share for share, _, _ in sections["self"]]
    assert shares == sorted(shares, reverse=True)
    assert sum(count for _, count, _ in sections["self"]) <= counted


def test_dotted_names_resolve_to_code_objects():
    from repro.core.allocator import ProactiveAllocator
    from repro.exec.sharded import run_sharded

    # A re-export resolves to the function it names; methods resolve too.
    assert sample_profile.resolve_code("repro.cli.run_sharded") is run_sharded.__code__
    method = "repro.core.allocator.ProactiveAllocator.allocate"
    assert sample_profile.resolve_code(method) is ProactiveAllocator.allocate.__code__
