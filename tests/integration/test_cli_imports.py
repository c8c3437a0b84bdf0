"""A command imports the layers it runs, not every layer the CLI knows.

``repro.cli`` imports each command's layers inside its handler -- the
linter, the service and its wire schema, the simulator, the ASCII
charts and the profiler among them (DESIGN.md "Set-up").  These
checks run in a fresh interpreter, since the test process has long
imported everything.
"""

import json
import os
import pathlib
import re
import signal
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


#: Modules perfbench's launcher, which imports ``repro.cli`` and
#: ``repro.experiments.paper_summary`` before any command, must leave
#: unloaded: numpy and the simulator, testbed meter and campaign runner.
HEAVY = (
    "numpy",
    "repro.sim.datacenter",
    "repro.testbed.meter",
    "repro.campaign.platformrunner",
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


class TestLauncherImports:
    def test_the_launchers_imports_leave_the_heavy_layers_unloaded(self):
        loaded = loaded_after("import repro.cli\nimport repro.experiments.paper_summary")
        assert [name for name in HEAVY if name in loaded] == []

    @pytest.mark.parametrize("argv", [["--help"], ["lint", "--list-rules"]])
    def test_help_and_the_rule_list_load_no_numpy(self, argv):
        statements = (
            "import repro.cli\n"
            "try:\n"
            f"    repro.cli.main({argv!r})\n"
            "except SystemExit as exit:\n"
            "    assert exit.code in (0, None), exit.code"
        )
        assert "numpy" not in loaded_after(statements)

    def test_the_wire_schema_loads_neither_asyncio_nor_numpy(self):
        loaded = loaded_after("import repro.service.schema")
        assert [name for name in ("asyncio", "numpy") if name in loaded] == []


#: Runs a command with its measured entry point wrapped as perfbench's
#: launcher wraps it, and prints the ``repro`` modules first imported
#: during the call.
MEASURED = """
import json, sys
import repro.cli
import repro.experiments.paper_summary as paper_summary

def measured(fn):
    def hook(*args, **kwargs):
        before = set(sys.modules)
        result = fn(*args, **kwargs)
        hook.imported = sorted(set(sys.modules) - before)
        return result
    hook.imported = None
    return hook

if sys.argv[1] == "reproduce":
    paper_summary.reproduce_paper = hook = measured(paper_summary.reproduce_paper)
else:
    repro.cli.run_sharded = hook = measured(repro.cli.run_sharded)
assert repro.cli.main(sys.argv[1:]) == 0
print(json.dumps(hook.imported))
"""


class TestMeasuredCallsImportNothing:
    """Import time never lands inside perfbench's measured phase."""

    def imported_during(self, *argv):
        imported = json.loads(run_python(MEASURED, *argv).splitlines()[-1])
        assert imported is not None, "the measured entry point never ran"
        # numpy loads numpy.ma on first use of some array paths.
        return [name for name in imported if name.startswith("repro")]

    def test_simulate(self, small_trace):
        argv = ["simulate", "--swf", str(small_trace), "--vm-budget", "40"]
        assert self.imported_during(*argv, "--strategy", "PA-0.5") == []
        assert self.imported_during(*argv, "--servers", "4", "--shards", "2") == []

    def test_reproduce(self):
        assert self.imported_during("reproduce", "--vm-budget", "200", "--quiet") == []


class TestServeImports:
    def test_serving_a_plan_loads_no_numpy(self, campaign, tmp_path):
        import http.client

        campaign.save(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = ["-X", "importtime", "-m", "repro", "serve", "--model", str(tmp_path)]
        process = subprocess.Popen(
            [sys.executable, *argv, "--port", "0"],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        lines = []
        try:
            for line in process.stderr:
                lines.append(line)
                listening = re.search(r"listening on http://[^:]+:(\d+)", line)
                if listening:
                    break
            assert listening, "".join(lines[-20:])
            connection = http.client.HTTPConnection("127.0.0.1", int(listening[1]), timeout=60)

            def post(path, body=None):
                payload = None if body is None else json.dumps(body)
                connection.request("POST", path, body=payload)
                response = connection.getresponse()
                return response.status, json.loads(response.read())

            status, session = post("/v1/sessions", {"n_servers": 4})
            assert status == 201
            path = f"/v1/sessions/{session['session_id']}"
            requests = [
                {"schema_version": "1", "vm_id": f"vm{i}", "workload_class": name}
                for i, name in enumerate(["cpu", "mem", "io"])
            ]
            assert post(f"{path}/requests", {"requests": requests})[0] == 200
            status, flushed = post(f"{path}/flush")
            assert status == 200 and flushed["batches"][0]["error"] is None
            connection.close()
        finally:
            process.send_signal(signal.SIGINT)
            rest = process.communicate(timeout=60)[1]
        imported = {
            line.rpartition("|")[2].strip()
            for line in [*lines, *rest.splitlines()]
            if line.startswith("import time:")
        }
        assert "repro.service.server" in imported
        assert [name for name in HEAVY if name in imported] == []
