"""Utilization-proportional server power model.

The paper measures real power with a wall meter; the simulator assumes
a fixed 125 W draw for a powered-on server plus the activity recorded
in the model database.  This module supplies the emulated "truth":

    P = idle + sum_s dynamic_w[s] * min(1, rho_s) + per_vm_w * n_active

Per-subsystem dynamic power saturates at the subsystem's capacity --
oversubscribing the CPU queues work, it does not push the package past
its max draw.  The small per-VM term models per-guest hypervisor
bookkeeping and is what makes energy-optimal consolidation levels
(OSE*) differ from performance-optimal ones (OSP*).
"""

from __future__ import annotations

from typing import Mapping

from repro.testbed.spec import SUBSYSTEMS, PowerSpec, Subsystem


def instantaneous_power(
    loads: Mapping[Subsystem, float],
    n_active: int,
    power: PowerSpec,
) -> float:
    """Power draw in watts for the given per-subsystem load factors.

    Parameters
    ----------
    loads:
        Load factors ``rho_s`` as computed by
        :meth:`repro.testbed.contention.MixModel.subsystem_loads`;
        values above 1.0 are clamped (saturated subsystem).
    n_active:
        Number of VMs currently running on the server.
    power:
        The server's power specification.
    """
    if n_active < 0:
        raise ValueError(f"n_active must be >= 0, got {n_active}")
    draw = power.idle_w + power.per_vm_w * n_active
    for subsystem in SUBSYSTEMS:
        rho = loads.get(subsystem, 0.0)
        if rho < 0:
            raise ValueError(f"load factor for {subsystem} must be >= 0, got {rho}")
        draw += power.dynamic_w[subsystem] * min(1.0, rho)
    return draw
