"""The benchmark's own tests: smoke-sized runs of every workload.

    python3 -m pytest perfbench -q

Each run uses ``--smoke`` sizes, so the whole file takes about a
minute.  Scratch files go under ``.perfbench_work`` in the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark driver, imported from beside this file)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(*args, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return completed


@pytest.fixture
def work():
    path = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_smoke_emits_every_declared_metric(workload, trace):
    completed = _run(
        "--workload", workload, "--seed", str(run.DEFAULT_SEED),
        "--seconds", "1", "--trace", trace, "--smoke",
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_malformed_admission_is_counted_not_fatal(work):
    paths = run.write_inputs("service", run.DEFAULT_SEED, smoke=True, work=work)
    sample = run.service_iteration(
        paths, work, traced=False, seed=run.DEFAULT_SEED,
        warmup_ops=5, ops=20, malformed_ops={7},
    )
    assert sample["failed"] == 1
    assert sample["extra_counts"]["service.http.errors"] == 1
    assert len(sample["op_latencies_s"]) == 20


def test_counts_repeat_across_traced_iterations(work):
    paths = run.write_inputs("campaign-ff", run.DEFAULT_SEED, smoke=True, work=work)
    argv = [value.format(**paths) for value in run.BATCH["campaign-ff"][1]]
    samples = [run.batch_iteration("campaign-ff", argv, paths, work, traced=True) for _ in range(2)]
    first, second = (run.layer_metrics(sample) for sample in samples)
    assert {name: first[name] for name in run.DETERMINISTIC} == {
        name: second[name] for name in run.DETERMINISTIC
    }
    assert first["sim.chronicle.spill_bytes"] > 0


def test_exits_nonzero_without_the_program(work):
    bare = os.path.join(work, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    completed = _run("--workload", "paper", "--seed", "1", "--seconds", "1", cwd=bare)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
