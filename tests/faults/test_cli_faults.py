"""CLI surface of fault injection: ``repro evaluate --faults``.

Malformed specs must die at argument-parse time with exit code 2 (the
same usage-error path as ``--jobs``/``--alpha``); a spec whose server
targets do not fit the simulated clouds exits 2 at run time with a
clear message; a valid spec threads through to the evaluation and the
JSON document echoes it.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.faults import FaultSpec


def write_spec(tmp_path, document, name="faults.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document) if isinstance(document, dict) else document)
    return str(path)


#: Benign chaos for 1-server scaled clouds: a transient slowdown plus
#: retried worker failures -- never removes capacity permanently.
BENIGN = {
    "events": [
        {"kind": "slowdown", "time_s": 100.0, "server": 0, "duration_s": 300.0,
         "factor": 1.5},
        {"kind": "worker_failure", "task": 0, "times": 2},
    ],
    "seed": 3,
}


class TestParseTimeValidation:
    def parse(self, spec_path):
        return build_parser().parse_args(["evaluate", "--faults", spec_path])

    def expect_exit_2(self, spec_path, capsys, message):
        with pytest.raises(SystemExit) as excinfo:
            self.parse(spec_path)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_valid_spec_accepted(self, tmp_path):
        args = self.parse(write_spec(tmp_path, BENIGN))
        assert isinstance(args.faults, FaultSpec)
        assert args.faults.seed == 3
        assert dict(args.faults.worker_failures) == {0: 2}

    def test_faults_defaults_to_none(self):
        assert build_parser().parse_args(["evaluate"]).faults is None

    def test_missing_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.parse("/nonexistent/faults.json")
        assert excinfo.value.code == 2
        assert "cannot read fault spec" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        self.expect_exit_2(
            write_spec(tmp_path, "{broken"), capsys, "not valid JSON"
        )

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        self.expect_exit_2(
            write_spec(tmp_path, {"events": [{"kind": "meteor_strike"}]}),
            capsys,
            "unknown fault kind 'meteor_strike'",
        )

    def test_negative_time_exits_2(self, tmp_path, capsys):
        self.expect_exit_2(
            write_spec(
                tmp_path,
                {"events": [{"kind": "server_crash", "server": 0, "time_s": -5}]},
            ),
            capsys,
            "time_s must be >= 0",
        )

    def test_unknown_spec_key_exits_2(self, tmp_path, capsys):
        self.expect_exit_2(
            write_spec(tmp_path, {"evnts": []}), capsys, "unknown fault spec keys"
        )


class TestUntypedSpecField:
    @pytest.mark.parametrize(
        "document, message",
        [
            ({"events": [{"kind": "worker_failure", "task": 0, "times": 1.9}]},
             "events[0]: bad field value: events[0].times must be an integer, got 1.9"),
            ({"events": [{"kind": "server_crash", "server": 1.5}]},
             "events[0]: bad field value: events[0].server must be an integer or "
             "null, got 1.5"),
            ('{"events": [{"kind": "server_crash", "server": 0, "time_s": NaN}]}',
             "events[0]: bad field value: events[0].time_s must be a finite number, "
             "got nan"),
            ('{"random": {"crash_rate_per_1000s": NaN}}',
             "random: bad field value: random.crash_rate_per_1000s must be a finite "
             "number, got nan"),
        ],
    )
    def test_simulate_exits_2_naming_the_field(self, tmp_path, capsys, document, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--faults", write_spec(tmp_path, document)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"repro simulate: error: argument --faults: {message}"
        ]


class TestUndecodableSpec:
    def test_simulate_non_utf8_spec_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "faults.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--faults", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"repro simulate: error: argument --faults: fault spec {str(path)!r} "
            "is not UTF-8 text: invalid start byte"
        ]


class TestEvaluateWithFaults:
    def test_out_of_range_server_exits_2_at_runtime(self, tmp_path, capsys):
        # Parse-time validation cannot know the cloud sizes; the
        # materialization inside run_evaluation reports it instead.
        spec_path = write_spec(
            tmp_path,
            {"events": [{"kind": "server_crash", "server": 500, "time_s": 10.0}]},
        )
        assert main(
            ["evaluate", "--vm-budget", "60", "--quiet", "--faults", spec_path]
        ) == 2
        err = capsys.readouterr().err
        assert "repro evaluate: error:" in err
        assert "targets server 500" in err

    def test_benign_faults_run_to_completion_as_json(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, BENIGN)
        assert main(
            ["evaluate", "--vm-budget", "60", "--quiet", "--format", "json",
             "--faults", spec_path]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == "1"
        assert document["command"] == "evaluate"
        # The JSON document echoes the normalized spec for provenance,
        # stamped with the wire-schema version like every document.
        faults = document["faults"]
        assert faults.pop("schema_version") == "1"
        assert faults == FaultSpec.from_dict(BENIGN).to_dict()
        assert len(document["outcomes"]) > 0

    def test_no_faults_reported_as_null(self, capsys):
        assert main(
            ["evaluate", "--vm-budget", "60", "--quiet", "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["faults"] is None
