"""CLI contracts: exit codes, JSON/SARIF modes, uniform flag validation."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.cli import main as analysis_main
from repro.cli import main as repro_main

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_DIR = Path(repro.__file__).resolve().parent
REPO_BASELINE = Path(__file__).resolve().parents[2] / "scripts" / "LINT_baseline.json"


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
            "dead-internal-function",
            "layering-import",
            "layering-cycle",
            "api-all-resolves",
            "api-facade-import",
            "float-equality",
            "except-bare",
            "except-swallow",
            "suppression-unknown-rule",
            "suppression-stale",
            "baseline-stale",
        ):
            assert rule_id in output

    def test_missing_path_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(["/no/such/path.txt"])
        assert excinfo.value.code == 2


class TestBaselineFlags:
    def test_update_then_apply_round_trips(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        target = str(FIXTURES / "bad_wallclock.py")
        code = analysis_main(
            [target, "--rules", "determinism-wallclock", "--update-baseline", str(baseline)]
        )
        assert code == 0
        assert "wrote 3 baseline entries" in capsys.readouterr().out
        document = json.loads(baseline.read_text(encoding="utf-8"))
        assert document["schema_version"] == "1"
        assert len(document["findings"]) == 3
        code = analysis_main(
            [target, "--rules", "determinism-wallclock", "--baseline", str(baseline)]
        )
        assert code == 0
        assert "(3 accepted by baseline)" in capsys.readouterr().out

    def test_stale_baseline_entry_fails_the_run(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema_version": "1",
                    "findings": [
                        {"rule": "except-bare", "path": "gone.py", "message": "paid off"}
                    ],
                }
            ),
            encoding="utf-8",
        )
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n", encoding="utf-8")
        code = analysis_main([str(clean), "--baseline", str(baseline)])
        assert code == 1
        assert "baseline-stale" in capsys.readouterr().out

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("[]", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            analysis_main([str(FIXTURES / "bad_wallclock.py"), "--baseline", str(baseline)])
        assert excinfo.value.code == 2
        assert "findings" in capsys.readouterr().err

    def test_baseline_and_update_are_mutually_exclusive(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"findings": []}', encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(
                [
                    str(FIXTURES / "bad_wallclock.py"),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                    str(tmp_path / "other.json"),
                ]
            )
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_repo_baseline_accepts_the_committed_debt(self):
        # The committed baseline carries exactly the two sanctioned
        # measurement points; with it applied the shipped tree is clean.
        assert analysis_main([str(PACKAGE_DIR), "--baseline", str(REPO_BASELINE)]) == 0


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

    def test_lint_baseline_passthrough(self, capsys):
        code = repro_main(
            ["lint", str(PACKAGE_DIR), "--baseline", str(REPO_BASELINE)]
        )
        assert code == 0
        assert "accepted by baseline" in capsys.readouterr().out

    def test_lint_update_baseline_passthrough(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        code = repro_main(
            [
                "lint",
                str(FIXTURES / "bad_rng.py"),
                "--rules",
                "determinism-rng",
                "--update-baseline",
                str(baseline),
            ]
        )
        assert code == 0
        assert baseline.exists()
        assert "wrote 3 baseline entries" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        assert "determinism-wallclock" in output
        assert "determinism-taint" in output


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
