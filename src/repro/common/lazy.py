"""Module attributes resolved on first read (PEP 562).

A module -- a package ``__init__``, mostly -- declares the names it
offers from other modules as one table, defining module -> names, and
binds the two hooks :func:`lazy_exports` returns::

    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.common.errors": ("ReproError", "ConfigurationError"),
            "repro.common.rng": ("SeedSequenceFactory",),
        },
    )

The first read of a name imports its defining module and binds the
object in the declaring module, so every later read is a plain
attribute lookup and a ``setattr`` patch of the name sticks.  Importing
the declaring module imports none of the table's modules: a command
loads the layers it runs and no others (DESIGN.md "Set-up").

Code inside the declaring module that reads such a name as a global
bypasses the hook (PEP 562 covers attribute reads only): it reads the
name through the module object instead.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Callable, Mapping, Sequence


def lazy_exports(
    module: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``module``, serving ``table``'s names.

    ``table`` maps each defining module's absolute name to the names
    ``module`` takes from it.  A name equal to the last part of its
    defining module (``repro.experiments.fig1_profiles`` exports the
    function ``fig1_profiles``) keeps naming the object even after the
    import system binds the submodule there.
    """
    target = sys.modules[module]
    namespace = target.__dict__
    sources = {name: source for source, names in table.items() for name in names}

    def __getattr__(name: str):
        source = sources.get(name)
        if source is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *sources})

    shadowed = {name for name, source in sources.items() if source == f"{module}.{name}"}
    if shadowed:
        target.__class__ = _shadowing_module(shadowed)
    return __getattr__, __dir__


def _shadowing_module(shadowed: set[str]) -> type[ModuleType]:
    class ShadowingModule(ModuleType):
        """A package whose exported names win over same-named submodules."""

        def __setattr__(self, name: str, value) -> None:
            # Importing ``package.name`` binds the submodule on the
            # package; an eager ``from .name import name`` would rebind
            # the object right after, so bind the object here.
            if name in shadowed and isinstance(value, ModuleType):
                value = getattr(value, name)
            super().__setattr__(name, value)

    return ShadowingModule

