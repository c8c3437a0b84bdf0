"""CLI contracts: exit codes, JSON/SARIF modes, uniform flag validation.

The linter's command line is defined once (:mod:`repro.analysis.cli`);
``repro lint``, ``python -m repro.analysis`` and ``scripts/lint.py``
all run that parser, so usage errors read ``repro lint: error:`` from
each of them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.cli import main as analysis_main
from repro.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_DIR = Path(repro.__file__).resolve().parent
LINT_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "lint.py"


class TestAnalysisEntryPoint:
    def test_clean_tree_exits_zero(self):
        assert analysis_main([str(PACKAGE_DIR / "analysis")]) == 0

    def test_findings_exit_one_with_json_document(self, capsys):
        code = analysis_main([str(FIXTURES / "bad_wallclock.py"), "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["n_violations"] > 0
        # The full catalog runs: the shallow per-file rule and the
        # graph-scoped taint rule both flag the reads.
        assert {v["rule"] for v in document["violations"]} == {
            "determinism-wallclock",
            "determinism-taint",
        }

    def test_sarif_format_emits_a_sarif_log(self, capsys):
        code = analysis_main([str(FIXTURES / "bad_wallclock.py"), "--format", "sarif"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"]

    def test_unknown_format_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main([str(FIXTURES), "--format", "yaml"])
        assert excinfo.value.code == 2
        assert "format must be one of" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main([str(FIXTURES), "--rules", "no-such-rule"])
        assert excinfo.value.code == 2

    def test_list_rules_names_the_whole_catalog(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        output = capsys.readouterr().out
        for rule_id in (
            "determinism-wallclock",
            "determinism-rng",
            "determinism-taint",
            "api-dead-export",
            "layering-import",
            "layering-cycle",
            "api-all-resolves",
            "api-facade-import",
            "float-equality",
            "except-bare",
            "except-swallow",
            "suppression-unknown-rule",
            "suppression-stale",
        ):
            assert rule_id in output
        assert "baseline-stale" not in output

    def test_missing_path_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(["/no/such/path.txt"])
        assert excinfo.value.code == 2


class TestReproLintSubcommand:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert repro_main(["lint", str(PACKAGE_DIR / "analysis")]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_lint_json_exits_nonzero_on_findings(self, capsys):
        code = repro_main(
            [
                "lint",
                str(FIXTURES / "bad_rng.py"),
                "--rules",
                "determinism-rng",
                "--format",
                "json",
            ]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["n_violations"] == 3

    def test_lint_sarif_passthrough(self, capsys):
        code = repro_main(["lint", str(FIXTURES / "bad_rng.py"), "--format", "sarif"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"

    def test_lint_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        assert "determinism-wallclock" in output
        assert "determinism-taint" in output

    @pytest.mark.parametrize("flag", ["--baseline", "--update-baseline"])
    def test_findings_baseline_flags_are_gone(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["lint", str(PACKAGE_DIR / "analysis"), flag, str(tmp_path / "b.json")])
        assert excinfo.value.code == 2
        assert f"repro lint: error: unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rules, reason",
        [
            (",", "names no rule id"),
            (" , ", "names no rule id"),
            ("suppression-stale", "names only engine-driven rules"),
        ],
    )
    def test_selection_that_checks_nothing_exits_two(self, rules, reason, tmp_path, capsys):
        # A stale directive a full run reports: a subset run that could
        # only ask for suppression-stale would silently pass it.
        stale = tmp_path / "stale.py"
        stale.write_text("X = 1  # repro: allow except-bare -- gone\n", encoding="utf-8")
        assert repro_main(["lint", str(stale)]) == 1
        assert "suppression-stale" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["lint", str(stale), "--rules", rules])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "repro lint: error: --rules" in error
        assert reason in error

    def test_usage_errors_name_repro_lint_from_every_entry_point(self, capsys):
        for run in (analysis_main, lambda argv: repro_main(["lint", *argv])):
            with pytest.raises(SystemExit) as excinfo:
                run(["/no/such/path.py"])
            assert excinfo.value.code == 2
            assert "repro lint: error:" in capsys.readouterr().err
        script = subprocess.run(
            [sys.executable, str(LINT_SCRIPT), "--format", "yaml"],
            capture_output=True,
            text=True,
        )
        assert script.returncode == 2
        assert "repro lint: error: argument --format" in script.stderr


class TestSourceDecoding:
    """Files are decoded as the interpreter decodes them."""

    def test_coding_cookie_is_honoured(self, tmp_path, capsys):
        latin = tmp_path / "latin.py"
        latin.write_bytes(b'# -*- coding: latin-1 -*-\nNAME = "caf\xe9"\n')
        assert repro_main(["lint", str(latin)]) == 0
        assert "0 violations in 1 checked file(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "data",
        [b'NAME = "caf\xe9"\n', b'X = 1\nY = 2\nNAME = "caf\xe9"\n'],
        ids=["first-line", "later-line"],
    )
    def test_undecodable_file_is_one_parse_error(self, data, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_bytes(data)
        assert repro_main(["lint", str(broken), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert [v["rule"] for v in document["violations"]] == ["parse-error"]


class TestUniformFormatValidation:
    """--format rejects junk with exit code 2 on every subcommand."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lint", ".", "--format", "xml"],
            ["allocate", "--model", "m", "--format", "xml"],
            ["evaluate", "--format", "xml"],
        ],
        ids=["lint", "allocate", "evaluate"],
    )
    def test_bad_format_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(argv)
        assert excinfo.value.code == 2
        assert "format must be one of" in capsys.readouterr().err

    def test_sarif_is_lint_only(self, capsys):
        # The richer lint vocabulary must not leak into the reporting
        # subcommands that only speak text/json.
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["evaluate", "--format", "sarif"])
        assert excinfo.value.code == 2
        assert "format must be one of" in capsys.readouterr().err
