"""Unit tests for the command-line interface."""

import json

import pytest

import repro.cli as cli_module
from repro.cli import _parse_batch, build_parser, main
from repro.common.rng import SeedSequenceFactory
from repro.workloads.assignment import assign_profiles_and_vms
from repro.workloads.cleaning import clean_trace
from repro.workloads.swf import read_swf


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile"],
            ["campaign", "-o", "/tmp/x"],
            ["allocate", "--model", "/tmp/x"],
            ["evaluate", "--vm-budget", "100"],
            ["fig2"],
        ],
    )
    def test_known_commands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


class TestBatchSpec:
    def test_parse_counts(self):
        batch = _parse_batch("4cpu,2mem,1io")
        classes = [r.workload_class.value for r in batch]
        assert classes.count("cpu") == 4
        assert classes.count("mem") == 2
        assert classes.count("io") == 1

    def test_implicit_count_of_one(self):
        assert len(_parse_batch("cpu")) == 1

    @pytest.mark.parametrize("spec", ["4gpu", "cpu4", "4 cpu x", "nonsense"])
    def test_bad_component_rejected_with_exit_code_2(self, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _parse_batch(spec)
        assert excinfo.value.code == 2
        assert "bad batch component" in capsys.readouterr().err

    def test_empty_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            _parse_batch(",")
        assert excinfo.value.code == 2


class TestArgValidation:
    @pytest.mark.parametrize("alpha", ["-0.1", "1.5", "two"])
    def test_alpha_out_of_range_exits_2(self, alpha, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["allocate", "--model", "/tmp/x", "--alpha", alpha]
            )
        assert excinfo.value.code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0", "1", "0.5"])
    def test_alpha_in_range_accepted(self, alpha):
        args = build_parser().parse_args(
            ["allocate", "--model", "/tmp/x", "--alpha", alpha]
        )
        assert args.alpha == float(alpha)

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["evaluate", "--format", "yaml"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-2", "1.5", "four"])
    @pytest.mark.parametrize("command", ["evaluate", "reproduce"])
    def test_bad_jobs_rejected_with_exit_code_2(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--jobs", jobs])
        assert excinfo.value.code == 2
        assert "jobs must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "reproduce"])
    def test_jobs_accepted_and_defaults_to_serial(self, command):
        assert build_parser().parse_args([command, "--jobs", "4"]).jobs == 4
        assert build_parser().parse_args([command]).jobs == 1

    @pytest.mark.parametrize("budget", ["0", "-1.5", "nan", "inf", "soon"])
    @pytest.mark.parametrize("command", ["allocate", "evaluate"])
    def test_bad_time_budget_rejected_with_exit_code_2(
        self, command, budget, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--time-budget", budget])
        assert excinfo.value.code == 2
        assert "time-budget" in capsys.readouterr().err

    @pytest.mark.parametrize("accuracy", ["inf", "nan", "-1", "loose"])
    def test_bad_meter_accuracy_exits_2(self, accuracy, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "-o", str(tmp_path), "--meter-accuracy", accuracy, "--quiet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro campaign: error:" in err
        assert "meter-accuracy must be a" in err
        assert not (tmp_path / "model_database.csv").exists()

    @pytest.mark.parametrize("accuracy", ["0", "0.015"])
    def test_meter_accuracy_accepted(self, accuracy):
        args = build_parser().parse_args(["campaign", "-o", "/tmp/x", "--meter-accuracy", accuracy])
        assert args.meter_accuracy == float(accuracy)

    @pytest.mark.parametrize("command", ["allocate", "evaluate"])
    def test_time_budget_accepted_and_defaults_to_none(self, command):
        base = ["--model", "/tmp/x"] if command == "allocate" else []
        args = build_parser().parse_args(
            [command, *base, "--time-budget", "2.5"]
        )
        assert args.time_budget == 2.5
        assert build_parser().parse_args([command, *base]).time_budget is None


class TestCommands:
    def test_profile_command(self, capsys):
        assert main(["profile", "fftw"]) == 0
        out = capsys.readouterr().out
        assert "fftw" in out and "class=cpu" in out

    def test_fig2_command(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "optimum at 9 VMs" in out

    def test_evaluate_with_jobs(self, capsys):
        assert main(["evaluate", "--vm-budget", "60", "--jobs", "2", "--quiet"]) == 0
        assert "Fig. 5: makespan" in capsys.readouterr().out

    def test_campaign_then_allocate(self, tmp_path, capsys):
        assert main(["campaign", "-o", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "model_database.csv").exists()
        assert (tmp_path / "auxiliary.csv").exists()
        assert main(
            ["allocate", "--model", str(tmp_path), "--alpha", "1.0", "--vms", "3cpu"]
        ) == 0
        out = capsys.readouterr().out
        assert "makespan" in out


class TestObservabilityFlags:
    @pytest.fixture(scope="class")
    def model_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("model")
        assert main(["campaign", "-o", str(path), "--quiet"]) == 0
        return path

    def test_allocate_json_format(self, model_dir, capsys):
        assert main(
            ["allocate", "--model", str(model_dir), "--vms", "2cpu,1mem",
             "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == "1"
        assert document["command"] == "allocate"
        plan = document["plan"]
        assert plan["schema_version"] == "1"
        assert plan["qos_satisfied"] in (True, False)
        assert len(plan["assignments"]) >= 1
        assert plan["search_provenance"]["partitions_enumerated"] > 0
        assert document["metrics"]["counters"]["allocator.calls"] == 1

    def test_allocate_trace_and_metrics_files(self, model_dir, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["allocate", "--model", str(model_dir), "--vms", "2cpu",
             "--trace", str(trace), "--metrics", str(metrics)]
        ) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events, "trace file must hold at least one event"
        for event in events:
            assert {"event", "span_id", "name", "t_wall", "t_sim"} <= event.keys()
        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema_version"] == "1"
        assert snapshot["counters"]["allocator.calls"] == 1

    def test_allocate_json_echoes_time_budget(self, model_dir, capsys):
        assert main(
            ["allocate", "--model", str(model_dir), "--vms", "2cpu",
             "--time-budget", "30", "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["time_budget_s"] == 30.0
        assert document["plan"]["search_provenance"]["anytime"] is True
        assert main(
            ["allocate", "--model", str(model_dir), "--vms", "2cpu",
             "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["time_budget_s"] is None
        assert document["plan"]["search_provenance"]["anytime"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["allocate", "--vms", "2cpu,1mem,1io", "--format", "json"],
            ["simulate", "--vm-budget", "8", "--format", "json"],
        ],
        ids=["allocate", "simulate"],
    )
    def test_json_documents_are_canonical_wire_text(
        self, argv, model_dir, tmp_path, capsys
    ):
        if argv[0] == "allocate":
            argv = [*argv, "--model", str(model_dir)]
        metrics = tmp_path / "metrics.json"
        assert main([*argv, "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        text = metrics.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_text_format_unchanged_by_default(self, model_dir, capsys):
        assert main(["allocate", "--model", str(model_dir), "--vms", "2cpu"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestTypedErrors:
    """Domain failures print ``repro <command>: error: ...`` and exit 2."""

    @staticmethod
    def swf_line(*fields):
        return " ".join([*fields, *["1"] * (18 - len(fields))]) + "\n"

    @pytest.mark.parametrize("field", ["abc", "nan", "inf"])
    def test_simulate_non_numeric_swf_field(self, field, tmp_path, capsys):
        path = tmp_path / "bad.swf"
        lines = ["; header\n", self.swf_line("1", "0"), self.swf_line("2", field)]
        path.write_text("".join(lines))
        assert main(["simulate", "--swf", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro simulate: error: line 3: ")
        assert field in err
        assert "Traceback" not in err

    def test_simulate_non_utf8_swf(self, tmp_path, capsys):
        path = tmp_path / "bad.swf"
        path.write_bytes(
            b"; header\n" + self.swf_line("1", "0").encode() + b"; caf\xe9\n"
        )
        assert main(["simulate", "--swf", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro simulate: error: line 3: not UTF-8 text")
        assert "Traceback" not in err

    @staticmethod
    def no_campaign(*args, **kwargs):
        raise AssertionError("the campaign ran for a trace with nothing to simulate")

    def test_simulate_comments_only_swf_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_module, "run_campaign", self.no_campaign)
        path = tmp_path / "empty.swf"
        path.write_text("; Version: 2.2\n; no jobs\n\n", encoding="utf-8")
        assert main(["simulate", "--swf", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro simulate: error: {path}: no jobs to simulate: "
            "kept 0/0 jobs (failed 0, cancelled 0, anomalies 0)\n"
        )

    @pytest.mark.parametrize("strategy", ["FF-2", "PA-0.5"])
    def test_simulate_all_jobs_cleaned_away_exits_2(
        self, strategy, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli_module, "run_campaign", self.no_campaign)
        path = tmp_path / "failed.swf"
        # job 1, submitted at 0, ran 100 s on 2 processors, status 0 (failed)
        fields = ["1", "0", "0", "100", "2"] + ["-1"] * 5 + ["0"] + ["-1"] * 7
        text = "; one failed job\n" + " ".join(fields) + "\n"
        path.write_text(text, encoding="utf-8")
        argv = ["simulate", "--swf", str(path), "--strategy", strategy]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "trace:" not in captured.out
        assert captured.err == (
            f"repro simulate: error: {path}: no jobs to simulate: "
            "kept 0/1 jobs (failed 1, cancelled 0, anomalies 0)\n"
        )

    def test_simulate_vm_budget_below_first_job_exits_2(self, tmp_path, capsys):
        path = tmp_path / "small.swf"
        # jobs 1-3, 10 s apart, each ran 100 s on 2 processors, status 1
        lines = [
            [str(job), str(10 * job), "0", "100", "2"] + ["-1"] * 5 + ["1"] + ["-1"] * 7
            for job in (1, 2, 3)
        ]
        path.write_text("".join(" ".join(f) + "\n" for f in lines), encoding="utf-8")
        first = assign_profiles_and_vms(
            clean_trace(read_swf(path)[1])[0],
            rng=SeedSequenceFactory(20110516).child("profiles"),
        )[0]
        budget = first.n_vms - 1
        assert budget >= 1  # the seeded draw gives the first job 2+ VMs
        argv = ["simulate", "--swf", str(path), "--vm-budget", str(budget)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro simulate: error: {path}: no jobs to simulate: --vm-budget "
            f"{budget} is below the first job's {first.n_vms} VMs\n"
        )
        assert main([*argv[:-1], str(first.n_vms)]) == 0
        assert capsys.readouterr().out.startswith("trace: 1 jobs")

    @pytest.mark.parametrize("strategy", ["FF-2", "PA-0.5"])
    def test_simulate_empty_synthetic_workload_exits_2(
        self, strategy, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli_module, "run_campaign", self.no_campaign)
        assert main(["simulate", "--vm-budget", "1", "--strategy", strategy]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro simulate: error: synthetic trace: no jobs to simulate: "
            "--vm-budget 1 is below the first job's VMs\n"
        )

    @pytest.mark.parametrize("name", ["PA-2", "PA--1", "PA-abc"])
    def test_simulate_bad_proactive_name_before_campaign(self, name, monkeypatch, capsys):
        def no_campaign(*args, **kwargs):
            raise AssertionError("the campaign ran before the name was checked")

        monkeypatch.setattr(cli_module, "run_campaign", no_campaign)
        assert main(["simulate", "--strategy", name, "--vm-budget", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro simulate: error: bad proactive name {name!r}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("servers", ["0", "-4"])
    def test_simulate_non_positive_servers(self, servers, capsys):
        assert main(["simulate", "--servers", servers, "--vm-budget", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"repro simulate: error: n_servers must be >= 1, got {servers}"
        )

    def test_simulate_nan_qos_factor(self, capsys):
        # NaN deadlines never bind: the run would report 0% violations.
        argv = ["simulate", "--qos-factor", "nan", "--vm-budget", "50"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro simulate: error: factor must be > 1, got nan")
        assert "Traceback" not in err

    # A 50-VM budget scales the clouds down so far that job 8 outgrows
    # them under every proactive goal: the run deadlocks on its queue.
    def test_simulate_unplaceable_job_exits_2(self, capsys):
        argv = ["simulate", "--vm-budget", "50", "--strategy", "PA-0.5", "--qos-factor", "4"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "repro simulate: error: job 8 can never be placed: strategy PA-0.5 "
            "rejects it on an idle cluster; pass more servers with --servers "
            "or a larger --vm-budget"
        )
        assert "Traceback" not in err

    def test_evaluate_unplaceable_job_exits_2(self, capsys):
        assert main(["evaluate", "--vm-budget", "50", "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "repro evaluate: error: job 8 can never be placed: strategy PA-1 "
            "rejects it on an idle cluster; pass a larger --vm-budget (the "
            "clouds scale with it)\n"
        )

    def test_reproduce_unplaceable_job_exits_2(self, capsys):
        assert main(["reproduce", "--vm-budget", "50", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro reproduce: error: job 8 can never be placed: strategy PA-1 "
            "rejects it on an idle cluster; pass a larger --vm-budget (the "
            "clouds scale with it)\n"
        )

    def test_allocate_infeasible_batch(self, campaign, tmp_path, capsys):
        campaign.save(tmp_path)
        argv = ["allocate", "--model", str(tmp_path), "--servers", "1"]
        assert main([*argv, "--vms", "30cpu"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro allocate: error: no feasible partition")
        assert "across 1 servers" in captured.err
