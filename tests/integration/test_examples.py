"""Smoke tests: every example script runs to completion.

The fast examples run as subprocesses exactly the way a user would run
them; the slow one (full trace replay) is exercised at reduced scale
elsewhere (tests/experiments) and only checked for importability here.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestFastExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "alpha=1.0" in out and "QoS satisfied: True" in out

    def test_profile_applications(self):
        out = run_example("profile_applications.py", "fftw", "b_eff_io")
        assert "class=cpu" in out and "class=io" in out

    def test_campaign_pipeline(self, tmp_path):
        out = run_example("campaign_pipeline.py", str(tmp_path))
        assert "Table I" in out
        assert (tmp_path / "model_database.csv").exists()


class TestSlowExamplesAtLeastParse:
    @pytest.mark.parametrize(
        "name",
        ["trace_replay.py"],
    )
    def test_compiles(self, name):
        source = (EXAMPLES / name).read_text()
        compile(source, name, "exec")
