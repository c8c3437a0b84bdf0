"""A command imports the layers it runs, not every layer the CLI knows.

``repro.cli`` imports the linter, the service and its wire schema, the
ASCII charts and the profiler inside the handlers that use them
(DESIGN.md "Set-up").  These checks run in a fresh interpreter, since
the test process has long imported everything.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.workloads.swf import SWFRecord, write_swf

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Modules ``import repro.cli`` must leave unloaded.
DEFERRED = (
    "asyncio",
    "repro.service",
    "repro.analysis",
    "repro.experiments.ascii",
    "repro.profiling.profiler",
)


def run_python(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def loaded_after(statements, *args):
    script = f"import json, sys\n{statements}\nprint(json.dumps(sorted(sys.modules)))\n"
    return set(json.loads(run_python(script, *args).splitlines()[-1]))


@pytest.fixture
def small_trace(tmp_path):
    path = tmp_path / "small.swf"
    records = [
        SWFRecord(job, 30 * job, run_time=120, allocated_procs=2, status=1)
        for job in range(1, 9)
    ]
    write_swf(records, path, comments=["small trace"])
    return path


class TestDeferredImports:
    def test_importing_the_cli_leaves_command_layers_unloaded(self):
        loaded = loaded_after("import repro.cli")
        assert "repro.cli" in loaded
        assert [name for name in DEFERRED if name in loaded] == []

    def test_text_simulate_loads_neither_asyncio_nor_the_service(self, small_trace):
        statements = (
            "import repro.cli\n"
            "code = repro.cli.main(['simulate', '--swf', sys.argv[1], '--vm-budget', '40'])\n"
            "assert code == 0, code"
        )
        loaded = loaded_after(statements, str(small_trace))
        assert "repro.sim.datacenter" in loaded
        assert [name for name in ("asyncio", "repro.service") if name in loaded] == []


class TestDeferredCommandsStillWork:
    def test_lint(self, capsys):
        target = SRC / "repro" / "workloads" / "swf.py"
        assert main(["lint", str(target)]) == 0

    def test_serve_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--help"])
        assert info.value.code == 0
        assert "--max-sessions" in capsys.readouterr().out

    def test_json_simulate(self, small_trace, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        argv = ["simulate", "--swf", str(small_trace), "--vm-budget", "40"]
        assert main([*argv, "--format", "json", "--metrics", str(metrics)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == "1"
        assert document["command"] == "simulate"
        assert document["n_jobs"] > 0
        assert json.loads(metrics.read_text(encoding="utf-8"))["schema_version"] == "1"
