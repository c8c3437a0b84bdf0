"""Tests for the top-level package API."""

import subprocess
import sys

import pytest

import repro
from repro import ModelDatabase, ProactiveAllocator, ServerState, VMRequest, build_model


class TestTopLevelAPI:
    def test_version(self):
        assert repro.__version__ == "3.0.0"

    def test_build_model_one_liner(self):
        database = build_model()
        assert isinstance(database, ModelDatabase)
        assert len(database) > 0

    def test_docstring_example(self):
        database = build_model()
        plan = ProactiveAllocator(database, alpha=1.0).allocate(
            [VMRequest("vm0", "cpu"), VMRequest("vm1", "cpu")],
            [ServerState("rack-0")],
        )
        assert plan.n_vms == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "allocate" in result.stdout


class TestStableFacade:
    def test_every_name_in_all_resolves(self):
        from repro import api

        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_no_extra_public_names(self):
        """The facade exports exactly what __all__ declares."""
        from repro import api

        public = {
            name
            for name in dir(api)
            if not name.startswith("_") and not name.startswith("repro")
        }
        declared = set(api.__all__)
        # Imported-but-undeclared helpers are allowed only if they are
        # modules; anything else must be declared.
        undeclared = {
            name
            for name in public - declared
            if not type(getattr(api, name)).__name__ == "module"
        }
        assert undeclared == set()

    def test_core_workflow_through_facade_only(self):
        from repro import api

        database = api.build_model()
        plan = api.ProactiveAllocator(database, alpha=0.5).allocate(
            [api.VMRequest("vm0", api.WorkloadClass.CPU)],
            [api.ServerState("rack-0")],
        )
        assert plan.n_vms == 1
        assert isinstance(plan, api.AllocationPlan)

    def test_service_exports_are_the_service_layer(self):
        # Exercised by name on purpose: the api-dead-export audit
        # requires every facade export to be referenced somewhere in
        # the linted tests, and `serve`/`Service` are otherwise only
        # reached through BackgroundService.
        from repro import api
        from repro.service import Service, serve

        assert api.Service is Service
        assert api.serve is serve
        assert callable(api.BackgroundService)

    def test_observability_exports(self):
        from repro import api

        registry = api.MetricsRegistry()
        registry.counter("x").inc()
        with api.observed(registry=registry) as bundle:
            assert api.get_observability() is bundle
            assert api.snapshot()["counters"]["x"] == 1


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.common",
            "repro.obs",
            "repro.testbed",
            "repro.profiling",
            "repro.campaign",
            "repro.core",
            "repro.workloads",
            "repro.sim",
            "repro.strategies",
            "repro.experiments",
            "repro.service",
        ],
    )
    def test_imports_cleanly(self, module):
        __import__(module)

    def test_no_import_cycles_at_package_root(self):
        # A fresh interpreter must import the root without the heavy
        # subpackages being pulled in transitively going sideways.
        result = subprocess.run(
            [sys.executable, "-c", "import repro; print('ok')"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.stdout.strip() == "ok"
