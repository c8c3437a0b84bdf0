"""Every module and every definition under ``src/repro`` is one a command runs.

Two checks, both static (DESIGN.md §3):

* **Modules.**  Walk imports -- at module level and inside functions,
  absolute and relative, and the entries of a ``lazy_exports`` table
  (:mod:`repro.common.lazy`), each an import deferred to first use --
  from the entry points (``repro.cli``, ``repro.api`` and every
  ``__main__`` module).  A package ``__init__``'s own imports are
  re-exports, not reach: a module is
  reached through one only when a reached module imports the
  re-exported name from the package.  The exception is registration:
  an ``__init__`` importing a module for its ``@rule`` decorators
  (``repro.analysis.rules``) reaches it.
* **Definitions.**  Every function, method and class defined in
  ``src/repro`` must be named by code in ``src/repro`` (docstrings,
  a package's re-exports and the names of lazy-export tables do not
  count), ``perfbench/`` or
  ``examples/``.  Names a test or bench uses do not count.  A
  definition named only from inside definitions that are themselves
  unnamed is unnamed too.  Exempt are dunder methods, ``@rule``
  registrations, the names in ``repro.api.__all__`` with every member
  of the classes it exports (semver, DESIGN.md §6), and the
  ``ALLOWLIST`` below, each entry with its reason.

Code that only a test, bench or example calls belongs with that test,
bench or example.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import sys
from dataclasses import dataclass

from repro.analysis.astutils import lazy_imports, lazy_table

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
# Code outside src/ whose names count as reach; tests and benches do not.
CONSUMERS = ("perfbench", "examples")
# Decorators whose import-time call registers the definition.
REGISTERING_DECORATORS = frozenset({"rule"})

# "module:qualname" -> why it stays though no command names it.
ALLOWLIST = {
    "repro.campaign.optimal:OptimalScenarios.tc": (
        "Table I's TC, the auxiliary file's reference-time symbol beside osc"
    ),
    "repro.campaign.optimal:OptimalScenarios.tm": (
        "Table I's TM, the auxiliary file's reference-time symbol beside osm"
    ),
    "repro.campaign.optimal:OptimalScenarios.ti": (
        "Table I's TI, the auxiliary file's reference-time symbol beside osi"
    ),
    "repro.obs.tracer:NullTracer.n_events": (
        "mirrors the public Tracer.n_events, so a disabled tracer reads the same"
    ),
    "repro.sim.chronicle:Chronicle.notes": (
        "reads the fault notes the event loop writes; the event-loop golden digest pins them"
    ),
    "repro.strategies.proactive:ProactiveStrategy.last_plan": (
        "DESIGN.md §6 names it as the replacement for the removed public plan attributes"
    ),
}


def module_files(src: pathlib.Path) -> dict[str, pathlib.Path]:
    """Dotted module name -> file, for every module under ``src/repro``."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _imports(module: str, path: pathlib.Path):
    """``(base, alias)`` for every import in ``path``; ``alias`` None for ``import x``.

    Relative imports resolve against the module's package.
    """
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    tree = _parse(path)
    for node in [*ast.walk(tree), *lazy_imports(tree)]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias


def imported_names(module: str, path: pathlib.Path) -> set[str]:
    """Every dotted name an import statement in ``path`` may load.

    ``from a.b import c`` yields ``a.b`` and ``a.b.c``: ``c`` may be a
    submodule.
    """
    names = set()
    for base, alias in _imports(module, path):
        names.add(base)
        if alias is not None:
            names.add(f"{base}.{alias.name}")
    return names


def reexports(module: str, path: pathlib.Path) -> dict[str, set[str]]:
    """Name bound in package ``module`` -> the dotted names it re-exports."""
    table: dict[str, set[str]] = {}
    for base, alias in _imports(module, path):
        if alias is not None:
            table.setdefault(alias.asname or alias.name, set()).update(
                {base, f"{base}.{alias.name}"}
            )
    return table


def _is_registration(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id in REGISTERING_DECORATORS


def _registers(path: pathlib.Path) -> bool:
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and any(_is_registration(d) for d in node.decorator_list)
        for node in _parse(path).body
    )


def unreached(src: pathlib.Path) -> list[str]:
    """Modules under ``src/repro`` no entry point reaches, sorted."""
    modules = module_files(src)
    packages = {name for name, path in modules.items() if path.name == "__init__.py"}
    registering = {name for name, path in modules.items() if _registers(path)}
    # A package registers when any module under it does.
    registering |= {p for p in packages if any(r.startswith(p + ".") for r in registering)}
    tables = {name: reexports(name, modules[name]) for name in packages}
    roots = ["repro.cli", "repro.api"]
    roots += [name for name in modules if name.endswith(".__main__")]
    reached: set[str] = set()
    resolved: set[str] = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        if name in resolved:
            continue
        resolved.add(name)
        if name not in modules:
            # ``from pkg import x`` where x is no module: whatever the
            # package's __init__ bound x to is reached.
            package, _, attr = name.rpartition(".")
            pending.extend(tables.get(package, {}).get(attr, ()))
            continue
        reached.add(name)
        # Importing a module runs every enclosing package's __init__.
        parts = name.split(".")
        pending.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        imports = imported_names(name, modules[name])
        if name in packages:
            imports = {i for i in imports if i in registering}
        pending.extend(imports)
    return sorted(set(modules) - reached)


# -- definitions ---------------------------------------------------------

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class Reference:
    name: str
    within: tuple[str, ...]  # keys of the tracked definitions it sits in


def _docstrings(tree: ast.Module) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _is_dunder_all(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in targets
    )


def scan(module: str, path: pathlib.Path, definitions: dict, references: list) -> None:
    """Add ``path``'s tracked definitions and the names its code uses.

    Tracked are module-level functions and classes and, recursively,
    the members of tracked classes; a function's local helpers are
    part of it.  ``definitions`` maps ``module:qualname`` to the
    decorator list.  ``module`` is None for a consumer outside
    ``src/repro``, which defines nothing tracked.
    """
    tree = _parse(path)
    docstrings = _docstrings(tree)
    reexporting = path.name == "__init__.py"

    def walk(node: ast.AST, scope: str | None, within: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if _is_dunder_all(child) or lazy_table(child) is not None:
                continue
            if isinstance(child, _DEFINITIONS):
                inner, child_scope = within, None
                if scope is not None:
                    qualname = f"{scope}.{child.name}" if scope else child.name
                    key = f"{module}:{qualname}"
                    definitions[key] = child.decorator_list
                    inner = within + (key,)
                    if isinstance(child, ast.ClassDef):
                        child_scope = qualname
                walk(child, child_scope, inner)
                continue
            if isinstance(child, ast.Name):
                references.append(Reference(child.id, within))
            elif isinstance(child, ast.Attribute):
                references.append(Reference(child.attr, within))
            elif isinstance(child, ast.Constant):
                value = child.value
                if isinstance(value, str) and value.isidentifier() and id(child) not in docstrings:
                    # getattr(), patch-by-name and the like.
                    references.append(Reference(value, within))
            elif isinstance(child, ast.alias) and child.asname and not reexporting:
                references.append(Reference(child.name.rpartition(".")[2], within))
            walk(child, scope, within)

    walk(tree, "" if module is not None else None, ())


def public_members() -> set[str]:
    """``module:qualname`` of every ``repro.api.__all__`` object, and its class members."""
    api = importlib.import_module("repro.api")
    public = set()
    for name in api.__all__:
        obj = getattr(api, name)
        if hasattr(obj, "__qualname__") and hasattr(obj, "__module__"):
            public.add(f"{obj.__module__}:{obj.__qualname__}")
    return public


def _name(key: str) -> str:
    return key.partition(":")[2].rpartition(".")[2]


def _exempt(key: str, decorators: list, public: set[str], allowlist: dict) -> bool:
    module, _, qualname = key.partition(":")
    name = _name(key)
    if name.startswith("__") and name.endswith("__"):
        return True
    if any(_is_registration(d) for d in decorators) or key in allowlist:
        return True
    parts = qualname.split(".")
    return any(f"{module}:{'.'.join(parts[:i])}" in public for i in range(1, len(parts) + 1))


def unnamed(
    root: pathlib.Path, public: set[str], allowlist: dict = ALLOWLIST
) -> list[str]:
    """``module:qualname`` of each definition no command names, outermost only."""
    definitions: dict[str, list] = {}
    references: list[Reference] = []
    for module, path in module_files(root / "src").items():
        scan(module, path, definitions, references)
    for consumer in CONSUMERS:
        for path in sorted((root / consumer).rglob("*.py")):
            if not path.name.startswith("test_"):
                scan(None, path, definitions, references)
    exempt = {k for k, d in definitions.items() if _exempt(k, d, public, allowlist)}
    # Fixed point: a name used only inside unnamed definitions is unnamed.
    dead: set[str] = set()
    while True:
        named: dict[str, set[tuple[str, ...]]] = {}
        for ref in references:
            if not dead.intersection(ref.within):
                named.setdefault(ref.name, set()).add(ref.within)
        now_dead = {
            key
            for key in definitions
            if key not in exempt
            and not any(
                key not in within
                for within in named.get(_name(key), ())
            )
        }
        if now_dead == dead:
            break
        dead = now_dead
    return sorted(
        key
        for key in dead
        if not any(key.startswith(other + ".") for other in dead if other != key)
    )


def _copy_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    for top in ("src", *CONSUMERS):
        for path in (ROOT / top).rglob("*.py"):
            target = tmp_path / path.relative_to(ROOT)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    return tmp_path


class TestSourceReachable:
    def test_every_module_is_reached_from_an_entry_point(self):
        assert unreached(SRC) == []

    def test_an_unimported_module_is_reported(self, tmp_path):
        tree = _copy_tree(tmp_path) / "src"
        (tree / "repro" / "core" / "orphan.py").write_text("X = 1\n", encoding="utf-8")
        assert set(unreached(tree)) - set(unreached(SRC)) == {"repro.core.orphan"}

    def test_a_module_only_a_package_reexports_is_reported(self, tmp_path):
        tree = _copy_tree(tmp_path) / "src"
        (tree / "repro" / "core" / "orphan.py").write_text("def f():\n    pass\n", "utf-8")
        init = tree / "repro" / "core" / "__init__.py"
        init.write_text(init.read_text("utf-8") + "from repro.core.orphan import f\n", "utf-8")
        assert set(unreached(tree)) - set(unreached(SRC)) == {"repro.core.orphan"}

    def test_a_module_only_a_lazy_package_table_exports_is_reported(self, tmp_path):
        tree = _copy_tree(tmp_path) / "src"
        (tree / "repro" / "sim" / "orphan.py").write_text("def f():\n    pass\n", "utf-8")
        init = tree / "repro" / "sim" / "__init__.py"
        text = init.read_text("utf-8")
        entry = '        "repro.sim.engine": ("EventQueue",),\n'
        assert entry in text
        init.write_text(text.replace(entry, entry + '        "repro.sim.orphan": ("f",),\n'))
        assert set(unreached(tree)) - set(unreached(SRC)) == {"repro.sim.orphan"}

    def test_a_lazy_table_in_a_command_module_reaches(self, tmp_path):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "cli.py").write_text(
            "__getattr__, __dir__ = lazy_exports(__name__, {'repro.used': ('f',)})\n",
            encoding="utf-8",
        )
        (package / "api.py").write_text("", encoding="utf-8")
        (package / "used.py").write_text("def f():\n    pass\n", encoding="utf-8")
        (package / "stray.py").write_text("", encoding="utf-8")
        assert unreached(tmp_path) == ["repro.stray"]

    def test_a_reexported_name_imported_from_the_package_reaches_its_module(self, tmp_path):
        package = tmp_path / "repro"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "cli.py").write_text("from repro.sub import used\n", encoding="utf-8")
        (package / "api.py").write_text("", encoding="utf-8")
        (package / "sub" / "__init__.py").write_text(
            "from .a import used\nfrom .b import idle\n", encoding="utf-8"
        )
        (package / "sub" / "a.py").write_text("used = 1\n", encoding="utf-8")
        (package / "sub" / "b.py").write_text("idle = 1\n", encoding="utf-8")
        assert unreached(tmp_path) == ["repro.sub.b"]

    def test_registration_through_a_package_init_is_reach(self, tmp_path):
        package = tmp_path / "repro"
        (package / "rules").mkdir(parents=True)
        (package / "__init__.py").write_text("from repro import rules\n", encoding="utf-8")
        (package / "cli.py").write_text("", encoding="utf-8")
        (package / "api.py").write_text("", encoding="utf-8")
        (package / "rules" / "__init__.py").write_text(
            "from repro.rules import checks, plain\n", encoding="utf-8"
        )
        (package / "rules" / "checks.py").write_text(
            "@rule('x', 'y')\ndef check(ctx):\n    pass\n", encoding="utf-8"
        )
        (package / "rules" / "plain.py").write_text("def helper():\n    pass\n", "utf-8")
        assert unreached(tmp_path) == ["repro.rules.plain"]

    def test_relative_imports_resolve_against_the_package(self, tmp_path):
        package = tmp_path / "repro"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "cli.py").write_text("from .sub import leaf\n", encoding="utf-8")
        (package / "api.py").write_text("", encoding="utf-8")
        (package / "sub" / "__init__.py").write_text("", encoding="utf-8")
        (package / "sub" / "leaf.py").write_text(
            "def later():\n    from ..sub.deep import value\n", encoding="utf-8"
        )
        (package / "sub" / "deep.py").write_text("value = 1\n", encoding="utf-8")
        (package / "sub" / "stray.py").write_text("", encoding="utf-8")
        assert unreached(tmp_path) == ["repro.sub.stray"]


class TestDefinitionsNamed:
    def test_every_definition_is_named_by_a_command(self):
        assert unnamed(ROOT, public_members()) == []

    def test_every_allowlist_entry_is_needed(self):
        needed = set(unnamed(ROOT, public_members(), allowlist={}))
        assert set(ALLOWLIST) - needed == set()

    def test_a_function_only_a_test_calls_is_reported(self, tmp_path):
        root = _copy_tree(tmp_path)
        path = root / "src" / "repro" / "core" / "plan.py"
        path.write_text(
            path.read_text("utf-8") + "\n\ndef planted_helper():\n    return 1\n", "utf-8"
        )
        (root / "tests").mkdir()
        (root / "tests" / "test_planted.py").write_text(
            "from repro.core.plan import planted_helper\nplanted_helper()\n", "utf-8"
        )
        assert unnamed(root, public_members()) == ["repro.core.plan:planted_helper"]

    def test_names_inside_unnamed_definitions_do_not_count(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "mod.py").write_text(
            '"""helper is named in this docstring."""\n'
            "def helper():\n    return helper()\n\n"
            "def outer():\n    return inner()\n\n"
            "def inner():\n    return 1\n\n"
            "class Box:\n    def used(self):\n        return self.idle\n\n"
            "    @property\n    def idle(self):\n        return 1\n\n"
            "    def __len__(self):\n        return 0\n\n"
            "def run():\n    return Box().used()\n",
            encoding="utf-8",
        )
        (package / "cli.py").write_text(
            "from repro.mod import run\n__all__ = ['outer']\nrun()\n", encoding="utf-8"
        )
        assert unnamed(tmp_path, set()) == [
            "repro.mod:helper",
            "repro.mod:inner",
            "repro.mod:outer",
        ]

    def test_public_classes_keep_every_member(self):
        public = public_members()
        assert "repro.obs.tracer:Tracer" in public
        assert _exempt("repro.obs.tracer:Tracer.n_events", [], public, {})
        assert not _exempt("repro.obs.tracer:NullTracer.n_events", [], public, {})


if __name__ == "__main__":  # pragma: no cover - ad-hoc listing
    sys.path.insert(0, str(SRC))
    print("\n".join(unreached(SRC) + unnamed(ROOT, public_members(), allowlist={})))
