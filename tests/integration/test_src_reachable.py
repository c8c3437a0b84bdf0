"""Every module under ``src/repro`` is one a command runs.

This walks static imports -- at module level and inside functions,
absolute and relative -- from the entry points (``repro.cli``,
``repro.api`` and every ``__main__`` module) and asserts that nothing
under ``src/repro`` is left unreached.  Code that only a test, bench or
example calls belongs with that test, bench or example (DESIGN.md §3).
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def module_files(src: pathlib.Path) -> dict[str, pathlib.Path]:
    """Dotted module name -> file, for every module under ``src/repro``."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def imported_names(module: str, path: pathlib.Path) -> set[str]:
    """Every dotted name an import statement in ``path`` may load.

    ``from a.b import c`` yields ``a.b`` and ``a.b.c``: ``c`` may be a
    submodule.  Relative imports resolve against the module's package.
    """
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def unreached(src: pathlib.Path) -> list[str]:
    """Modules under ``src/repro`` no entry point imports, sorted."""
    modules = module_files(src)
    roots = ["repro.cli", "repro.api"]
    roots += [name for name in modules if name.endswith(".__main__")]
    reached: set[str] = set()
    pending = list(roots)
    while pending:
        module = pending.pop()
        if module in reached or module not in modules:
            continue
        reached.add(module)
        # Importing a module runs every enclosing package's __init__.
        parts = module.split(".")
        pending.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        pending.extend(imported_names(module, modules[module]))
    return sorted(set(modules) - reached)


class TestSourceReachable:
    def test_every_module_is_reached_from_an_entry_point(self):
        assert unreached(SRC) == []

    def test_an_unimported_module_is_reported(self, tmp_path):
        tree = tmp_path / "src"
        for path in module_files(SRC).values():
            target = tree / path.relative_to(SRC)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        (tree / "repro" / "core" / "orphan.py").write_text("X = 1\n", encoding="utf-8")
        assert set(unreached(tree)) - set(unreached(SRC)) == {"repro.core.orphan"}

    def test_relative_imports_resolve_against_the_package(self, tmp_path):
        package = tmp_path / "repro"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "cli.py").write_text("from .sub import leaf\n", encoding="utf-8")
        (package / "api.py").write_text("", encoding="utf-8")
        (package / "sub" / "__init__.py").write_text("from . import inner\n", encoding="utf-8")
        (package / "sub" / "inner.py").write_text("", encoding="utf-8")
        (package / "sub" / "leaf.py").write_text(
            "def later():\n    from ..sub.deep import value\n", encoding="utf-8"
        )
        (package / "sub" / "deep.py").write_text("value = 1\n", encoding="utf-8")
        (package / "sub" / "stray.py").write_text("", encoding="utf-8")
        assert unreached(tmp_path) == ["repro.sub.stray"]
