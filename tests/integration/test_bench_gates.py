"""The BENCH gates: the committed files fail only their known gates,
every gate can fail, bad input exits 2.

Runs no bench.  Each case feeds ``scripts/check_bench_regression.py`` the
committed ``benchmarks/BENCH_*.json`` files, a copy of one with every
gate at its bound and a single metric pushed past it, or a malformed
file, and reads its exit status: 0 when every gate holds, 1 when one
fails, 2 on unreadable input.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO / "benchmarks"
CHECKER = REPO / "scripts" / "check_bench_regression.py"

_spec = importlib.util.spec_from_file_location("check_bench_regression", CHECKER)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)
benchfile = checker.benchfile

#: Every gate the committed BENCH files declare, with its threshold.  A
#: gate that disappears, appears or moves fails the census below.
GATES = {
    ("BENCH_allocator.json", "batches/8/optimized"): {"max": 1.2 * 0.02072243700058607},
    ("BENCH_allocator.json", "batches/16/optimized"): {"max": 1.2 * 13.221925794000526},
    ("BENCH_allocator.json", "batches/24/optimized"): {"max": 1.2 * 0.14137614100036444},
    ("BENCH_allocator.json", "batches/8/frontier_margin"): {"min": 1},
    ("BENCH_allocator.json", "batches/16/frontier_margin"): {"min": 1},
    ("BENCH_allocator.json", "batches/24/frontier_margin"): {"min": 1},
    ("BENCH_allocator.json", "anytime/16"): {"max": 0.65},
    ("BENCH_allocator.json", "anytime/32"): {"max": 1.5},
    ("BENCH_allocator.json", "anytime/16/quality_ratio"): {"max": 1.05},
    ("BENCH_allocator.json", "observability/overhead"): {"max": 0.05},
    ("BENCH_parallel.json", "speedup/4"): {"min": 1.5, "min_cpus": 4},
    ("BENCH_parallel.json", "identity/outcomes"): {"equals": True},
    ("BENCH_parallel.json", "identity/snapshot"): {"equals": True},
    ("BENCH_parallel.json", "identity/trace"): {"equals": True},
    ("BENCH_service.json", "latency"): {"max": 0.050},
    ("BENCH_service.json", "throughput"): {"min": 200.0},
    ("BENCH_service.json", "throughput/all_planned"): {"equals": True},
    ("BENCH_service.json", "identity/chunks_identical"): {"equals": True},
    ("BENCH_service.json", "identity/library_identical"): {"equals": True},
    ("BENCH_lint.json", "cold"): {"max": 10.0},
    ("BENCH_sim.json", "speedup_vs_naive"): {"min": 5.0},
    ("BENCH_sim.json", "rss_ratio"): {"max": 1.2},
    ("BENCH_sim.json", "proactive_over_firstfit"): {"max": 1.5},
    ("BENCH_sim.json", "identity/workers"): {"equals": True},
    ("BENCH_sim.json", "identity/workers_faulted"): {"equals": True},
    ("BENCH_carbon.json", "shift/cost_reduction"): {"min": 0.10},
    ("BENCH_carbon.json", "shift/carbon_reduction"): {"min": 0.10},
    ("BENCH_carbon.json", "overhead/accounting_frac"): {"max": 0.05},
    ("BENCH_carbon.json", "identity/metrics_unchanged"): {"equals": True},
}

#: Gates the committed recordings miss.  Each file is one full run of its
#: bench, committed as recorded; CHANGES.md reports these misses.  A new
#: recording may shrink this set; a new miss fails the test below.
KNOWN_FAILING = {
    ("BENCH_allocator.json", "batches/24/optimized"),
    ("BENCH_allocator.json", "observability/overhead"),
}


def committed(name: str) -> dict:
    return json.loads((BENCH_DIR / name).read_text())


def entry_of(document: dict, name: str) -> dict:
    return next(m for m in document["metrics"] if m["name"] == name)


def run_checker(capsys, *paths) -> tuple[int, str, str]:
    code = checker.main([str(path) for path in paths])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bound_of(gate: dict):
    return next(gate[kind] for kind in benchfile.GATE_KINDS if kind in gate)


def with_samples(tmp_path, file_name, metric_name, samples) -> Path:
    """A copy of a committed file with every gated metric at its bound,
    then one metric's samples replaced and the host large enough for its
    gate to be enforced."""
    document = committed(file_name)
    for other in document["metrics"]:
        if "gate" in other:
            other["samples"] = [bound_of(other["gate"])]
    entry = entry_of(document, metric_name)
    entry["samples"] = samples
    host = document["host"]
    host["cpu_count"] = max(host["cpu_count"], entry["gate"].get("min_cpus", 1))
    path = tmp_path / file_name
    path.write_text(json.dumps(document))
    return path


def just_past(gate: dict):
    if "equals" in gate:
        return not gate["equals"]
    bound = gate.get("max", gate.get("min"))
    step = max(abs(bound) * 1e-6, 1e-9)
    return bound + step if "max" in gate else bound - step


def failed_gates(out: str) -> set:
    rows = [line[len("  - "):] for line in out.splitlines() if line.startswith("  - ")]
    return {tuple(row.split(": ", 1)[0].split("  ", 1)) for row in rows}


def test_committed_files_fail_only_the_known_gates(capsys):
    code, out, err = run_checker(capsys)
    assert failed_gates(out) == KNOWN_FAILING, out + err
    assert code == (1 if KNOWN_FAILING else 0)


def test_gate_census_and_thresholds():
    found = {}
    for path in sorted(BENCH_DIR.glob("BENCH_*.json")):
        for entry in benchfile.load(path)["metrics"]:
            if "gate" in entry:
                found[(path.name, entry["name"])] = entry["gate"]
    assert sorted(found) == sorted(GATES)
    for key, gate in GATES.items():
        assert found[key] == pytest.approx(gate, rel=1e-12), key


@pytest.mark.parametrize("key", sorted(GATES), ids=lambda key: f"{key[0]}:{key[1]}")
def test_each_gate_fails_just_past_its_bound(tmp_path, capsys, key):
    file_name, metric_name = key
    path = with_samples(tmp_path, file_name, metric_name, [just_past(GATES[key])])
    code, out, _ = run_checker(capsys, path)
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("  - ")]
    assert len(failures) == 1, out
    assert failures[0].startswith(f"  - {file_name}  {metric_name}: ")
    assert failures[0].endswith("FAIL")


@pytest.mark.parametrize("key", sorted(GATES), ids=lambda key: f"{key[0]}:{key[1]}")
def test_each_gate_holds_at_its_bound(tmp_path, capsys, key):
    file_name, metric_name = key
    path = with_samples(tmp_path, file_name, metric_name, [bound_of(GATES[key])])
    code, out, _ = run_checker(capsys, path)
    assert code == 0, out


def test_gate_reads_the_median(tmp_path, capsys):
    # Two of five samples past the 10 s ceiling leave the median inside; three do not.
    path = with_samples(tmp_path, "BENCH_lint.json", "cold", [1.0, 2.0, 3.0, 11.0, 12.0])
    assert run_checker(capsys, path)[0] == 0
    path = with_samples(tmp_path, "BENCH_lint.json", "cold", [1.0, 2.0, 11.0, 11.0, 12.0])
    assert run_checker(capsys, path)[0] == 1


def test_equals_gate_holds_on_every_sample(tmp_path, capsys):
    path = with_samples(
        tmp_path, "BENCH_service.json", "throughput/all_planned", [True, False, True]
    )
    assert run_checker(capsys, path)[0] == 1


def synthetic(tmp_path, cpu_count: int) -> Path:
    """A 1.5x speedup gate for hosts of at least 4 CPUs, missed at 0.9x."""
    document = {
        "format": benchfile.FORMAT,
        "bench": "synthetic",
        "host": {"cpu_count": cpu_count},
        "config": {},
        "metrics": [
            benchfile.metric("speedup", "x", "higher", [0.9],
                             gate={"min": 1.5, "min_cpus": 4}),
            benchfile.identity("identity/outcomes", [True]),
        ],
    }
    path = tmp_path / "BENCH_synthetic.json"
    path.write_text(json.dumps(document))
    return path


def test_min_cpus_skips_on_a_small_host_and_enforces_on_a_large_one(tmp_path, capsys):
    code, out, _ = run_checker(capsys, synthetic(tmp_path, cpu_count=1))
    assert code == 0
    assert "speedup: median 0.9 x (n=1)  min 1.5  SKIPPED (host had 1 CPU(s)" in out
    assert "identity/outcomes: true (n=1)  equals true  OK" in out

    code, out, _ = run_checker(capsys, synthetic(tmp_path, cpu_count=4))
    assert code == 1
    assert "speedup: median 0.9 x (n=1)  min 1.5  FAIL" in out


def test_identity_gate_is_enforced_on_a_one_cpu_host(tmp_path, capsys):
    path = synthetic(tmp_path, cpu_count=1)
    document = json.loads(path.read_text())
    document["metrics"][1]["samples"] = [False]
    path.write_text(json.dumps(document))
    assert run_checker(capsys, path)[0] == 1


def _truncated(document):
    return json.dumps(document)[:200]


def _wrong_format(document):
    document["format"] = benchfile.FORMAT + 1
    return json.dumps(document)


def _no_samples(document):
    del entry_of(document, "latency")["samples"]
    return json.dumps(document)


def _empty_samples(document):
    entry_of(document, "latency")["samples"] = []
    return json.dumps(document)


def _unknown_gate_kind(document):
    entry_of(document, "latency")["gate"] = {"ratio": 1.2}
    return json.dumps(document)


def _verdict_not_bool(document):
    # 1 == True, so an integer verdict would pass an equals-true gate.
    entry_of(document, "throughput/all_planned")["samples"] = [1, 1, 1]
    return json.dumps(document)


def _gated_input_missing(document):
    document["metrics"] = [
        m for m in document["metrics"] if m["name"] != "throughput/wall"
    ]
    entry_of(document, "throughput")["inputs"] = ["throughput/wall"]
    return json.dumps(document)


MALFORMED = {
    "truncated": (_truncated, "not valid JSON"),
    "not_json": (lambda document: "BENCH results follow", "not valid JSON"),
    "wrong_format": (_wrong_format, "field 'format'"),
    "no_samples": (_no_samples, "metric 'latency': field 'samples'"),
    "empty_samples": (_empty_samples, "metric 'latency': field 'samples'"),
    "unknown_gate_kind": (_unknown_gate_kind, "metric 'latency': field 'gate': unknown gate kind 'ratio'"),
    "gated_input_missing": (_gated_input_missing, "metric 'throughput': field 'inputs'"),
    "verdict_not_bool": (_verdict_not_bool, "metric 'throughput/all_planned': field 'samples'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, case):
    mangle, field = MALFORMED[case]
    path = tmp_path / "BENCH_service.json"
    path.write_text(mangle(committed("BENCH_service.json")))
    code, out, err = run_checker(capsys, path)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"check_bench_regression: error: {path}: ")
    assert field in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_checker(capsys, tmp_path / "BENCH_absent.json")
    assert code == 2
    assert "BENCH_absent.json: cannot read" in err


def test_command_line(tmp_path):
    committed_run = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True, cwd=tmp_path
    )
    assert committed_run.returncode == (1 if KNOWN_FAILING else 0), (
        committed_run.stdout + committed_run.stderr
    )
    assert "Traceback" not in committed_run.stderr
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text('{"format": 1, "metrics": [')
    broken = subprocess.run(
        [sys.executable, str(CHECKER), str(bad)], capture_output=True, text=True
    )
    assert broken.returncode == 2
    assert "Traceback" not in broken.stderr
    assert broken.stderr.count("\n") == 1


def test_write_then_load_round_trips(tmp_path):
    metrics = [
        benchfile.metric("wall", "s", "lower", [0.2, 0.1, 0.3], gate={"max": 1.0}),
        benchfile.metric("rate", "1/s", "higher", [10.0], inputs=["wall"]),
    ]
    path = tmp_path / "BENCH_roundtrip.json"
    written = benchfile.write(path, "roundtrip", {"quick": True}, metrics)
    assert benchfile.load(path) == written
    assert written["host"]["cpu_count"] >= 1


def test_write_refuses_a_malformed_document(tmp_path):
    path = tmp_path / "BENCH_refused.json"
    with pytest.raises(benchfile.BenchFileError, match="unknown gate kind 'ratio'"):
        benchfile.write(path, "refused", {}, [
            benchfile.metric("wall", "s", "lower", [1.0], gate={"ratio": 1.2}),
        ])
    assert not path.exists()


def test_a_quick_run_never_writes_the_committed_file(tmp_path, monkeypatch):
    monkeypatch.setattr(benchfile.tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    committed_path = tmp_path / "BENCH_smoke.json"
    metrics = [benchfile.metric("wall", "s", "lower", [0.1], gate={"max": 1.0})]
    benchfile.write(committed_path, "smoke", {}, metrics, quick=True)
    assert not committed_path.exists()
    assert benchfile.load(tmp_path / "tmp" / "BENCH_smoke.json")["metrics"] == metrics
