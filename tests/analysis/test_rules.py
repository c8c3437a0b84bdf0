"""Golden-fixture tests: every shipped rule flags its known-bad snippet.

Each fixture under ``fixtures/`` is a minimal violation of exactly one
rule family, pinned to a pretend module via ``# repro-fixture-module:``
so layer-scoped rules apply.  Deleting (or breaking) any single rule's
implementation makes its case here fail, which is the point: the rule
catalog is itself regression-tested.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, *rules: str):
    return run_lint([FIXTURES / name], rules=set(rules))


class TestDeterminismRules:
    def test_wallclock_flags_time_datetime_and_from_imports(self):
        result = lint_fixture("bad_wallclock.py", "determinism-wallclock")
        lines = [violation.line for violation in result.violations]
        assert len(lines) == 3  # time.time(), pc(), datetime.now()
        assert all(v.rule == "determinism-wallclock" for v in result.violations)

    def test_rng_flags_stdlib_import_and_numpy_global(self):
        result = lint_fixture("bad_rng.py", "determinism-rng")
        assert len(result.violations) == 3  # import random, np.random.seed, np.random.default_rng
        assert {v.rule for v in result.violations} == {"determinism-rng"}

    def test_anytime_layer_covered_by_both_determinism_rules(self):
        # repro.core.anytime introduced seeded beam/local search; this
        # twin module proves its layer stays under both rules, so the
        # real module's SeedSequenceFactory children and suppressed
        # deadline reads are load-bearing, not accidental.
        result = lint_fixture(
            "bad_anytime_rng.py", "determinism-rng", "determinism-wallclock"
        )
        assert len(result.violations) == 2  # import random, time.monotonic()
        assert {v.rule for v in result.violations} == {
            "determinism-rng",
            "determinism-wallclock",
        }

    def test_wallclock_rule_skips_unchecked_layers(self, tmp_path):
        # The identical call is fine outside core/sim/strategies/campaign/obs.
        clock = tmp_path / "clock.py"
        clock.write_text(
            "# repro-fixture-module: repro.experiments.clock\n"
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n",
            encoding="utf-8",
        )
        result = run_lint([clock], rules={"determinism-wallclock"})
        assert result.ok

    def test_tracer_allowlisted_for_wallclock(self, tmp_path):
        tracer = tmp_path / "tracer.py"
        tracer.write_text(
            "# repro-fixture-module: repro.obs.tracer\n"
            "import time\n"
            "def now():\n"
            "    return time.perf_counter()\n",
            encoding="utf-8",
        )
        result = run_lint([tracer], rules={"determinism-wallclock"})
        assert result.ok


class TestLayeringRules:
    def test_upward_imports_flagged(self):
        result = lint_fixture("bad_layering.py", "layering-import")
        assert len(result.violations) == 2
        messages = " ".join(v.message for v in result.violations)
        assert "repro.obs.runtime" in messages  # the forbidden submodule edge
        assert "repro.sim.engine" in messages  # the matrix violation

    def test_lower_layer_importing_exec_flagged(self):
        # The engine is reached from below via an injected mapper only.
        result = lint_fixture("bad_exec_layering.py", "layering-import")
        assert len(result.violations) == 1
        assert "repro.exec" in result.violations[0].message

    def test_sim_shard_helper_may_not_import_exec(self):
        # The sharded-campaign split: partition/merge bookkeeping lives
        # in sim, the pool fan-out in exec.sharded; a sim-side shard
        # helper importing the engine inverts the order.
        result = lint_fixture("bad_shard_layering.py", "layering-import")
        assert len(result.violations) == 1
        assert "repro.exec" in result.violations[0].message

    def test_exec_may_not_import_experiments(self, tmp_path):
        bad = tmp_path / "bad_exec_up.py"
        bad.write_text(
            "# repro-fixture-module: repro.exec.badup\n"
            "from repro.experiments.evaluation import run_evaluation\n",
            encoding="utf-8",
        )
        result = run_lint([bad], rules={"layering-import"})
        assert len(result.violations) == 1
        assert "experiments" in result.violations[0].message

    def test_faults_layer_may_not_import_consumers(self):
        # repro.faults is plain data under sim/exec; importing either
        # consumer (or strategies) from it inverts the layer order.
        result = lint_fixture("bad_faults_layering.py", "layering-import")
        assert len(result.violations) == 2
        messages = " ".join(v.message for v in result.violations)
        assert "repro.sim" in messages
        assert "repro.strategies" in messages

    def test_service_layer_may_not_import_the_crust(self):
        # The HTTP front end consumes library layers; the CLI and the
        # package root wire *it* in, never the reverse.
        result = lint_fixture("bad_service_layering.py", "layering-import")
        assert len(result.violations) == 2
        messages = " ".join(v.message for v in result.violations)
        assert "repro.cli" in messages
        assert "the package root" in messages

    def test_service_layer_may_import_core_and_faults(self, tmp_path):
        ok = tmp_path / "ok_service.py"
        ok.write_text(
            "# repro-fixture-module: repro.service.okdown\n"
            "from repro.core.allocator import ProactiveAllocator\n"
            "from repro.faults.spec import FaultSpec\n"
            "from repro.experiments.evaluation import StrategyOutcome\n",
            encoding="utf-8",
        )
        result = run_lint([ok], rules={"layering-import"})
        assert result.ok

    def test_service_layer_under_wallclock_rule(self, tmp_path):
        bad = tmp_path / "bad_service_clock.py"
        bad.write_text(
            "# repro-fixture-module: repro.service.badclock\n"
            "import time\n"
            "def coalesce_deadline():\n"
            "    return time.monotonic()\n",
            encoding="utf-8",
        )
        result = run_lint([bad], rules={"determinism-wallclock"})
        assert len(result.violations) == 1
        assert result.violations[0].rule == "determinism-wallclock"

    def test_faults_layer_may_import_common_and_obs(self, tmp_path):
        ok = tmp_path / "ok_faults.py"
        ok.write_text(
            "# repro-fixture-module: repro.faults.okdown\n"
            "from repro.common.errors import FaultSpecError\n"
            "from repro.obs.registry import MetricsRegistry\n",
            encoding="utf-8",
        )
        result = run_lint([ok], rules={"layering-import"})
        assert result.ok

    def test_sim_and_exec_may_import_faults(self, tmp_path):
        ok = tmp_path / "ok_consumers.py"
        ok.write_text(
            "# repro-fixture-module: repro.exec.okfaults\n"
            "from repro.faults import WorkerFaultPlan\n",
            encoding="utf-8",
        )
        result = run_lint([ok], rules={"layering-import"})
        assert result.ok

    def test_exec_may_import_sim_and_obs(self, tmp_path):
        ok = tmp_path / "ok_exec.py"
        ok.write_text(
            "# repro-fixture-module: repro.exec.okdown\n"
            "from repro.obs.registry import MetricsRegistry\n"
            "from repro.sim.datacenter import DatacenterSimulator\n",
            encoding="utf-8",
        )
        result = run_lint([ok], rules={"layering-import"})
        assert result.ok

    def test_cycle_detected_once(self):
        result = run_lint(
            [FIXTURES / "bad_cycle_a.py", FIXTURES / "bad_cycle_b.py"],
            rules={"layering-cycle"},
        )
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert "repro.campaign.cycle_a" in violation.message
        assert "repro.campaign.cycle_b" in violation.message

    def test_acyclic_pair_is_clean(self):
        result = run_lint(
            [FIXTURES / "bad_cycle_a.py", FIXTURES / "bad_wallclock.py"],
            rules={"layering-cycle"},
        )
        assert result.ok


class TestApiSurfaceRules:
    def test_unbound_all_export_flagged(self):
        result = lint_fixture("bad_api_all.py", "api-all-resolves")
        assert len(result.violations) == 1
        assert "ghost_function" in result.violations[0].message

    def test_facade_import_from_internal_flagged(self):
        result = lint_fixture("bad_facade_import.py", "api-facade-import")
        assert len(result.violations) == 1
        assert "repro.api" in result.violations[0].message


class TestFloatRule:
    def test_float_equality_flagged(self):
        result = lint_fixture("bad_float_eq.py", "float-equality")
        assert len(result.violations) == 3  # literal, division, float("inf")
        int_compare_lines = [v for v in result.violations if "n == 0" in v.message]
        assert not int_compare_lines


class TestExceptRules:
    def test_bare_except_flagged(self):
        result = lint_fixture("bad_except.py", "except-bare")
        assert len(result.violations) == 1

    def test_swallowed_broad_handler_flagged_reraise_ok(self):
        result = lint_fixture("bad_except.py", "except-swallow")
        assert len(result.violations) == 1  # only swallow_broad


class TestTaintRule:
    def test_cross_module_flow_flagged_with_call_path(self):
        result = run_lint(
            [FIXTURES / "bad_taint_flow.py", FIXTURES / "bad_taint_helper.py"],
            rules={"determinism-taint"},
        )
        # Two helper sources reached from the simulator (wall clock,
        # environment read) plus the in-module set iteration.
        assert len(result.violations) == 3
        messages = " ".join(v.message for v in result.violations)
        assert "call path" in messages
        assert "repro.sim.badflow" in messages
        assert "wall-clock read" in messages
        assert "environment read" in messages
        assert "unordered set" in messages
        helper_hits = [v for v in result.violations if "bad_taint_helper" in v.path]
        assert len(helper_hits) == 2  # anchored at the source, not the caller

    def test_sharded_merge_path_covered(self):
        # The shard merge must stay a pure function of the shard
        # decomposition; a wall-clock tie-break (via the unchecked
        # helper) and set-ordered bookkeeping are both caught inside
        # the protected sim layer.
        result = run_lint(
            [FIXTURES / "bad_taint_shard.py", FIXTURES / "bad_taint_helper.py"],
            rules={"determinism-taint"},
        )
        messages = " ".join(v.message for v in result.violations)
        assert "repro.sim.badmerge" in messages
        assert "wall-clock read" in messages
        assert "unordered set" in messages

    def test_helper_alone_is_clean(self):
        # The same sources with no protected caller in view prove
        # nothing; repro.common is not a protected layer.
        result = run_lint(
            [FIXTURES / "bad_taint_helper.py"], rules={"determinism-taint"}
        )
        assert result.ok

    def test_seeded_numpy_construction_is_not_a_source(self, tmp_path):
        ok = tmp_path / "ok_rng.py"
        ok.write_text(
            "# repro-fixture-module: repro.core.okrng\n"
            "import numpy as np\n"
            "def draw():\n"
            "    return np.random.default_rng(123).random()\n",
            encoding="utf-8",
        )
        result = run_lint([ok], rules={"determinism-taint"})
        assert result.ok

    def test_unseeded_numpy_construction_is_a_source(self, tmp_path):
        bad = tmp_path / "bad_rng_taint.py"
        bad.write_text(
            "# repro-fixture-module: repro.core.badrngtaint\n"
            "import numpy as np\n"
            "def draw():\n"
            "    return np.random.default_rng().random()\n",
            encoding="utf-8",
        )
        result = run_lint([bad], rules={"determinism-taint"})
        assert len(result.violations) == 1
        assert "numpy RNG" in result.violations[0].message

    def test_inline_suppression_sanctions_the_read(self, tmp_path):
        ok = tmp_path / "ok_clock.py"
        ok.write_text(
            "# repro-fixture-module: repro.sim.okmeasure\n"
            "import time\n"
            "def measure():\n"
            "    return time.perf_counter()  # repro: allow determinism-taint -- measured on purpose\n",
            encoding="utf-8",
        )
        result = run_lint([ok], rules={"determinism-taint"})
        assert result.ok

    def test_tracer_module_is_sanctioned(self, tmp_path):
        tracer = tmp_path / "tracer.py"
        tracer.write_text(
            "# repro-fixture-module: repro.obs.tracer\n"
            "import time\n"
            "def now():\n"
            "    return time.perf_counter()\n",
            encoding="utf-8",
        )
        result = run_lint([tracer], rules={"determinism-taint"})
        assert result.ok


class TestDeadcodeRules:
    def test_dead_export_flagged_only_with_consumers(self, tmp_path):
        facade = tmp_path / "facade.py"
        facade.write_text(
            "# repro-fixture-module: repro.api\n"
            '__all__ = ["used", "ghost"]\n'
            "used = 1\n"
            "ghost = 2\n",
            encoding="utf-8",
        )
        consumer = tmp_path / "consumer.py"
        consumer.write_text("from repro.api import used\n", encoding="utf-8")
        result = run_lint([facade, consumer], rules={"api-dead-export"})
        assert len(result.violations) == 1
        assert "ghost" in result.violations[0].message
        # Without the consumer in view, absence of references proves
        # nothing and the rule stays quiet.
        assert run_lint([facade], rules={"api-dead-export"}).ok


class TestEngineBehaviour:
    def test_unknown_rule_id_raises_immediately(self):
        with pytest.raises(KeyError):
            run_lint([FIXTURES / "bad_wallclock.py"], rules={"no-such-rule"})

    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n", encoding="utf-8")
        result = run_lint([broken])
        assert len(result.violations) == 1
        assert result.violations[0].rule == "parse-error"

    def test_full_catalog_on_fixture_dir_reports_every_family(self):
        result = run_lint([FIXTURES])
        rules_seen = {violation.rule for violation in result.violations}
        assert {
            "determinism-wallclock",
            "determinism-rng",
            "determinism-taint",
            "layering-import",
            "layering-cycle",
            "api-all-resolves",
            "api-facade-import",
            "float-equality",
            "except-bare",
            "except-swallow",
            "suppression-unknown-rule",
        } <= rules_seen
