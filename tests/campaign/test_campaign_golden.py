"""Golden digest of the default benchmarking campaign.

``run_campaign()`` emulates every (Ncpu, Nmem, Nio) mix of the paper's
model-building campaign; its Table II records and Table I optima feed
every PA simulation, so any change to the mix runner's arithmetic
shows here first.  The digest covers each record's key and the exact
bits (``float.hex``) of its time, energy and max power, plus every
class's optima.  Re-record it only for an intended change of the
emulator's outputs, and state that change in CHANGES.md.
"""

from __future__ import annotations

import hashlib

from repro.campaign.platformrunner import CampaignResult
from repro.testbed.benchmarks import WORKLOAD_CLASSES

CAMPAIGN_DIGEST = "5531a9164a1560eff10791b91c3103072cbc5e3e2de20c79914a826608f7dbff"


def campaign_digest(campaign: CampaignResult) -> str:
    """SHA-256 over the Table II records and the Table I optima."""
    lines = [
        f"{record.key} {record.time_s.hex()} {record.energy_j.hex()} {record.max_power_w.hex()}"
        for record in campaign.records
    ]
    for workload_class in WORKLOAD_CLASSES:
        optima = campaign.optima.optima(workload_class)
        lines.append(
            f"{workload_class.value} {optima.osp} {optima.ose} {optima.t_single_s.hex()}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestCampaignGolden:
    def test_default_campaign_digest(self, campaign):
        assert len(campaign.records) == 639
        assert campaign_digest(campaign) == CAMPAIGN_DIGEST
