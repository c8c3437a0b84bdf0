"""Reporter contracts: JSON/SARIF schemas are stable, the text is readable."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import run_lint, to_json, to_sarif, to_text
from repro.analysis.registry import rule_ids
from repro.analysis.reporters import JSON_SCHEMA_VERSION, SARIF_SCHEMA_URI, SARIF_VERSION

FIXTURES = Path(__file__).parent / "fixtures"


class TestJsonReporter:
    def test_schema_keys_and_types(self):
        result = run_lint([FIXTURES / "bad_float_eq.py"], rules={"float-equality"})
        document = json.loads(to_json(result))
        assert set(document) == {
            "schema_version",
            "version",
            "tool",
            "checked_files",
            "n_violations",
            "violations",
        }
        assert document["version"] == JSON_SCHEMA_VERSION
        assert document["tool"] == "repro.analysis"
        # The reporter cannot import upward; its literal wire version
        # must track repro.service.schema.SCHEMA_VERSION.
        from repro.service.schema import SCHEMA_VERSION

        assert document["schema_version"] == SCHEMA_VERSION
        assert document["checked_files"] == 1
        assert document["n_violations"] == len(document["violations"]) > 0
        for entry in document["violations"]:
            assert set(entry) == {"rule", "path", "line", "col", "message"}
            assert isinstance(entry["line"], int)
            assert isinstance(entry["col"], int)

    def test_key_order_is_stable_and_sorted(self):
        result = run_lint([FIXTURES / "bad_float_eq.py"], rules={"float-equality"})
        rendered = to_json(result)
        # Byte-stable: same tree, same report.
        assert rendered == to_json(result)
        # Keys are emitted sorted at both levels.
        document = json.loads(rendered)
        assert list(json.loads(rendered)) == sorted(document)
        first = rendered.index("{", 1)
        assert rendered.index('"checked_files"') < rendered.index('"n_violations"') < first

    def test_violations_ordered_by_position(self):
        result = run_lint([FIXTURES])
        entries = json.loads(to_json(result))["violations"]
        keys = [(e["path"], e["line"], e["col"], e["rule"]) for e in entries]
        assert keys == sorted(keys)


class TestTextReporter:
    def test_one_line_per_finding_plus_summary(self):
        result = run_lint([FIXTURES / "bad_except.py"], rules={"except-bare"})
        text = to_text(result)
        lines = text.splitlines()
        assert len(lines) == 2
        assert "bad_except.py" in lines[0]
        assert "except-bare" in lines[0]
        assert lines[1] == "1 violation in 1 checked file(s)"

    def test_clean_run_prints_summary_only(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n", encoding="utf-8")
        result = run_lint([clean])
        assert to_text(result) == "0 violations in 1 checked file(s)"


class TestSarifReporter:
    def result(self):
        return run_lint([FIXTURES / "bad_wallclock.py"], rules={"determinism-wallclock"})

    def test_log_structure_follows_the_spec(self):
        document = json.loads(to_sarif(self.result()))
        assert document["$schema"] == SARIF_SCHEMA_URI
        assert document["version"] == SARIF_VERSION == "2.1.0"
        assert len(document["runs"]) == 1
        run = document["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        # The full catalog travels in the log, fired or not (plus the
        # engine's parse-error vocabulary).
        listed = {entry["id"] for entry in driver["rules"]}
        assert rule_ids() <= listed
        assert "parse-error" in listed
        for entry in driver["rules"]:
            assert entry["shortDescription"]["text"]

    def test_results_reference_rules_by_id_and_index(self):
        document = json.loads(to_sarif(self.result()))
        run = document["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert len(run["results"]) == 3  # bad_wallclock's three reads
        for entry in run["results"]:
            assert entry["level"] == "error"
            assert entry["message"]["text"]
            assert rules[entry["ruleIndex"]]["id"] == entry["ruleId"]
            location = entry["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith("bad_wallclock.py")
            assert "\\" not in location["artifactLocation"]["uri"]
            region = location["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1  # SARIF columns are 1-based

    def test_byte_stable_across_equal_runs(self):
        assert to_sarif(self.result()) == to_sarif(self.result())
        rendered = to_sarif(self.result())
        document = json.loads(rendered)
        assert list(document) == sorted(document)  # sort_keys holds

    def test_clean_run_has_empty_results(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n", encoding="utf-8")
        document = json.loads(to_sarif(run_lint([clean])))
        assert document["runs"][0]["results"] == []
