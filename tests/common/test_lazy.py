"""Lazy module attributes: the package inits and command modules.

Each package init names what it re-exports in a ``lazy_exports``
table; the first read of a name imports the module that defines it.
The checks in a fresh interpreter cover import order, which the test
process (having long imported everything) cannot show.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

from repro.analysis.astutils import lazy_imports
from repro.common.lazy import lazy_exports

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.common",
    "repro.campaign",
    "repro.testbed",
    "repro.faults",
    "repro.experiments",
    "repro.exec",
    "repro.sim",
    "repro.strategies",
    "repro.workloads",
    "repro.ext.carbon",
    "repro.service",
)


def table_of(module):
    """``{name: defining module}`` from the module's lazy-export table."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    return {
        alias.name: statement.module
        for statement in lazy_imports(tree)
        for alias in statement.names
    }


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyPackage:
    def test_every_exported_name_is_the_defining_modules_object(self, package):
        module = importlib.import_module(package)
        table = table_of(module)
        assert table, f"{package} declares no lazy exports"
        assert set(table) <= set(module.__all__)
        for name in module.__all__:
            value = getattr(module, name)
            if name in table:
                assert value is getattr(importlib.import_module(table[name]), name), name
            else:  # defined in the init itself (repro.build_model, __version__)
                assert name in vars(module)

    def test_dir_lists_every_exported_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_an_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018
        assert not hasattr(module, "no_such_name")


def run_python(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


FIGURES = ("fig1_profiles", "fig2_basecurve", "fig4_worked_example")
SUBMODULES = ("fig1_profiles", "fig2_basecurve", "fig4_accounting")


class TestFunctionsShadowSubmodules:
    """``repro.experiments.fig1_profiles`` is the function, not the module."""

    REPORT = (
        "import json, types\n"
        "import repro.experiments as package\n"
        "print(json.dumps({n: isinstance(getattr(package, n), types.FunctionType)"
        f" for n in {FIGURES!r}}}))\n"
    )

    def test_after_the_submodules_were_imported(self):
        imports = "".join(f"import repro.experiments.{name}\n" for name in SUBMODULES)
        script = imports + f"from repro.experiments import {', '.join(FIGURES)}\n"
        assert run_python(script + self.REPORT) == dict.fromkeys(FIGURES, True)

    def test_before_the_submodules_are_imported(self):
        script = f"from repro.experiments import {', '.join(FIGURES)}\n"
        script += "".join(f"import repro.experiments.{name}\n" for name in SUBMODULES)
        assert run_python(script + self.REPORT) == dict.fromkeys(FIGURES, True)

    def test_from_import_returns_the_function(self):
        script = (
            "import json, repro.experiments.fig1_profiles\n"
            "from repro.experiments import fig1_profiles\n"
            "print(json.dumps(fig1_profiles.__module__))\n"
        )
        assert run_python(script) == "repro.experiments.fig1_profiles"


@pytest.fixture
def module(monkeypatch):
    """A throwaway module exporting ``sqrt`` and ``pi`` from ``math`` lazily."""
    module = types.ModuleType("lazy_probe")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    module.__getattr__, module.__dir__ = lazy_exports(
        module.__name__, {"math": ("sqrt", "pi")}
    )
    return module


class TestHelper:
    def test_first_read_binds_the_object(self, module):
        import math

        assert "sqrt" not in vars(module)
        assert module.sqrt is math.sqrt
        assert vars(module)["sqrt"] is math.sqrt

    def test_a_patched_name_stays(self, module):
        module.sqrt = patched = object()
        assert module.sqrt is patched
