"""The whole-program symbol table.

A :class:`Project` indexes every linted file once -- module-level
functions, classes (with their methods), module-level assignments and
the local-name -> absolute-target import bindings -- so that
project-scoped rules can resolve a dotted name (``repro.service.Session``)
to its defining node wherever the definition actually lives.
Resolution follows re-export chains: ``repro.service.Session`` is an
import binding in ``repro/service/__init__.py`` pointing at
``repro.service.session.Session``, and :meth:`Project.resolve` chases
it to the class definition.

The table is built once per lint run and shared by every project rule
(the engine hands project rules a context list that carries the cached
instance; see :func:`get_project`).  Everything here is pure stdlib
``ast`` -- the analysis package must stay importable on a broken tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.astutils import iter_imports


@dataclass(frozen=True)
class FunctionSymbol:
    """One function or method definition somewhere in the project."""

    qualname: str  # repro.core.anytime.Deadline.expired
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: str | None = None  # owning class, None for module level

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass(frozen=True)
class ClassSymbol:
    """One class definition with its directly defined methods."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: dict  # name -> FunctionSymbol
    base_names: tuple  # textual base-class names (dotted where written so)

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ModuleTable:
    """Everything name-resolvable of one module."""

    module: str
    context: object  # the engine FileContext
    functions: dict = field(default_factory=dict)  # name -> FunctionSymbol
    classes: dict = field(default_factory=dict)  # name -> ClassSymbol
    constants: dict = field(default_factory=dict)  # name -> ast.expr (module-level Assign)
    #: local name -> absolute dotted target.  ``from repro.core.plan
    #: import AllocationPlan`` binds ``AllocationPlan ->
    #: repro.core.plan.AllocationPlan``; ``import repro.core.plan as p``
    #: binds ``p -> repro.core.plan``.
    import_bindings: dict = field(default_factory=dict)


def _class_base_names(node: ast.ClassDef) -> tuple:
    names = []
    for base in node.bases:
        parts: list[str] = []
        inner = base
        while isinstance(inner, ast.Attribute):
            parts.append(inner.attr)
            inner = inner.value
        if isinstance(inner, ast.Name):
            parts.append(inner.id)
            names.append(".".join(reversed(parts)))
    return tuple(names)


def _index_module(context) -> ModuleTable:
    table = ModuleTable(module=context.module, context=context)
    for statement in context.tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table.functions[statement.name] = FunctionSymbol(
                qualname=f"{context.module}.{statement.name}",
                module=context.module,
                name=statement.name,
                node=statement,
            )
        elif isinstance(statement, ast.ClassDef):
            methods: dict[str, FunctionSymbol] = {}
            for inner in statement.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[inner.name] = FunctionSymbol(
                        qualname=f"{context.module}.{statement.name}.{inner.name}",
                        module=context.module,
                        name=inner.name,
                        node=inner,
                        class_name=statement.name,
                    )
            table.classes[statement.name] = ClassSymbol(
                qualname=f"{context.module}.{statement.name}",
                module=context.module,
                name=statement.name,
                node=statement,
                methods=methods,
                base_names=_class_base_names(statement),
            )
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    table.constants[target.id] = statement.value
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            if statement.value is not None:
                table.constants[statement.target.id] = statement.value
    for imported in iter_imports(context.tree, importer=context.module):
        if imported.type_checking:
            continue
        if imported.names:  # from X import a, b (as c)
            node = imported.node
            for alias in getattr(node, "names", []):
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table.import_bindings.setdefault(
                    local, f"{imported.target}.{alias.name}"
                )
        else:  # plain `import X [as y]`
            node = imported.node
            for alias in getattr(node, "names", []):
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                table.import_bindings.setdefault(local, target)
    return table


class Project:
    """The indexed whole program: module tables plus dotted resolution."""

    def __init__(self, contexts: Sequence) -> None:
        self.modules: dict[str, ModuleTable] = {}
        for context in contexts:
            # Last writer wins on duplicate module names (fixtures may
            # impersonate a real module in targeted test runs).
            self.modules[context.module] = _index_module(context)

    @classmethod
    def build(cls, contexts: Sequence) -> "Project":
        return cls(contexts)

    def table(self, module: str) -> ModuleTable | None:
        return self.modules.get(module)

    def iter_functions(self) -> Iterator[FunctionSymbol]:
        """Every function and method, in deterministic module/name order."""
        for module in sorted(self.modules):
            table = self.modules[module]
            for name in sorted(table.functions):
                yield table.functions[name]
            for class_name in sorted(table.classes):
                cls_symbol = table.classes[class_name]
                for method_name in sorted(cls_symbol.methods):
                    yield cls_symbol.methods[method_name]

    def resolve_caller_module(self, qualname: str) -> str:
        """The module owning a call-graph caller id (module or function)."""
        if qualname in self.modules:
            return qualname
        module, _rest = self._split_module_prefix(qualname)
        return module if module is not None else qualname

    def _split_module_prefix(self, dotted: str) -> tuple:
        """Split ``dotted`` into (known module, remaining attribute path)."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                return module, parts[cut:]
        return None, []

    def resolve(self, dotted: str, _depth: int = 0):
        """Resolve an absolute dotted name to a symbol, chasing re-exports.

        Returns a :class:`FunctionSymbol`, :class:`ClassSymbol`,
        ``("constant", module, name, node)`` tuple, a :class:`ModuleTable`
        (when ``dotted`` names a module), or ``None``.
        """
        if _depth > 8:  # import cycles cannot resolve anywhere useful
            return None
        module, rest = self._split_module_prefix(dotted)
        if module is None:
            return None
        table = self.modules[module]
        if not rest:
            return table
        head, tail = rest[0], rest[1:]
        if head in table.functions and not tail:
            return table.functions[head]
        if head in table.classes:
            cls_symbol = table.classes[head]
            if not tail:
                return cls_symbol
            if len(tail) == 1:
                method = self.resolve_method(cls_symbol, tail[0])
                if method is not None:
                    return method
            return None
        if head in table.import_bindings:
            return self.resolve(
                ".".join([table.import_bindings[head], *tail]), _depth + 1
            )
        if head in table.constants and not tail:
            return ("constant", module, head, table.constants[head])
        return None

    def resolve_class(self, module: str, name: str) -> ClassSymbol | None:
        """Resolve a class *as seen from* ``module`` (local or imported)."""
        table = self.modules.get(module)
        if table is None:
            return None
        if name in table.classes:
            return table.classes[name]
        dotted = name if "." in name else table.import_bindings.get(name)
        if dotted is None:
            # `a.b.C` written with a module alias for `a`
            parts = name.split(".")
            if parts[0] in table.import_bindings:
                dotted = ".".join([table.import_bindings[parts[0]], *parts[1:]])
        if dotted is None:
            return None
        resolved = self.resolve(dotted)
        return resolved if isinstance(resolved, ClassSymbol) else None

    def resolve_method(self, cls_symbol: ClassSymbol, method: str):
        """Look ``method`` up on a class, then on its project-known bases."""
        seen: set[str] = set()
        stack = [cls_symbol]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            for base_name in current.base_names:
                base = self.resolve_class(current.module, base_name)
                if base is not None:
                    stack.append(base)
        return None


def get_project(contexts) -> Project:
    """The shared :class:`Project` for a lint run.

    The engine hands project-scoped rules a list subclass carrying a
    cached instance; plain lists (rule unit tests) build a fresh one.
    """
    cached = getattr(contexts, "_project", None)
    if isinstance(cached, Project):
        return cached
    project = Project.build(contexts)
    try:
        contexts._project = project
    except AttributeError:
        pass  # plain list: rebuilt per call, which unit tests can afford
    return project
