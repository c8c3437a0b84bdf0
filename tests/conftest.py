"""Shared fixtures.

The expensive artifacts -- the benchmarking campaign and the model
database built from it -- are session-scoped: they are deterministic
(no meter noise) and read-only, so every test can share them.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign.platformrunner import CampaignResult, run_campaign
from repro.core import partitions
from repro.core.model import ModelDatabase
from repro.testbed.spec import ServerSpec, default_server


@pytest.fixture(scope="session")
def server() -> ServerSpec:
    """The reference testbed server."""
    return default_server()


@pytest.fixture(scope="session")
def campaign(server: ServerSpec) -> CampaignResult:
    """A full deterministic benchmarking campaign (base + combined)."""
    return run_campaign(server=server)


@pytest.fixture(scope="session")
def database(campaign: CampaignResult) -> ModelDatabase:
    """The model database built from the shared campaign."""
    return ModelDatabase.from_campaign(campaign)


@pytest.fixture
def type_partitions_calls(monkeypatch):
    """Counts :func:`~repro.core.partitions.type_partitions` calls.

    The allocator's partition families are memoized process-wide
    (:func:`~repro.core.partitions.partition_family`), so a test that
    counts or substitutes ``type_partitions`` must start from an empty
    memo: this fixture clears it before and after the test.  Yields a
    list holding one ``(counts, bounds)`` entry per call.
    """
    calls = []
    real = partitions.type_partitions

    def counting(counts, bounds=None, prune=None):
        calls.append((counts, bounds))
        return real(counts, bounds, prune=prune)

    partitions.partition_family.cache_clear()
    monkeypatch.setattr(partitions, "type_partitions", counting)
    yield calls
    partitions.partition_family.cache_clear()


@pytest.fixture
def signal_file(tmp_path):
    """Factory writing temporal-signal JSON files for CLI/loader tests.

    ``signal_file(document)`` serializes the dict; ``signal_file(None,
    raw=...)`` writes the text verbatim for malformed-input tests.
    Each call gets a fresh file name.
    """
    counter = {"n": 0}

    def write(document, raw: "str | None" = None) -> str:
        counter["n"] += 1
        path = tmp_path / f"signal-{counter['n']}.json"
        text = raw if raw is not None else json.dumps(document)
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write
