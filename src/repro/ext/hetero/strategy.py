"""Heterogeneity-aware proactive placement: the core PROACTIVE search
with every server scored through its own hardware class's database."""

from __future__ import annotations

from typing import Mapping

from repro.common.errors import ConfigurationError
from repro.core.model import ModelDatabase
from repro.strategies.proactive import ProactiveStrategy


class HeteroProactiveStrategy(ProactiveStrategy):
    """PROACTIVE over servers of several hardware classes: ``databases``
    maps class names to model databases (see :func:`build_class_databases`),
    ``class_of_server`` maps each ``server_id`` to its class."""

    name_suffix = "-hetero"

    def __init__(
        self,
        databases: Mapping[str, ModelDatabase],
        class_of_server: Mapping[str, str],
        alpha: float = 0.5,
    ):
        for name, class_name in class_of_server.items():
            if class_name not in databases:
                raise ConfigurationError(
                    f"server {name!r} maps to unknown class {class_name!r}"
                )
        super().__init__(
            {name: databases[class_name] for name, class_name in class_of_server.items()},
            alpha=alpha,
        )
