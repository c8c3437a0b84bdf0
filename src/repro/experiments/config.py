"""Shared configuration of the Figs. 5-7 evaluation.

The paper: "in order to control the pressure of the system load, we
modeled two different Clouds of different sizes rather than using
different input traces with different arrival rates.  The SMALLER
Cloud system is the reference one and the LARGER Cloud system is
over-dimensioned (15% approximately). ... The input trace used in the
simulations requests a total of 10,000 VMs."

Cloud sizes here are calibrated so the SMALLER system runs loaded (the
FF family queues and violates deadlines) while the LARGER one has
headroom -- the relationship the paper's figures exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class EvaluationConfig:
    """One evaluation scenario (a 'cloud' plus the trace shape)."""

    label: str
    n_servers: int
    vm_budget: int = 10_000
    #: Raw synthetic jobs generated before cleaning; sized so the
    #: cleaned, VM-scaled trace still covers ``vm_budget``.
    raw_jobs: int = 5500
    #: Mean gap between submission bursts, seconds.  Sets the load
    #: pressure: the default keeps the SMALLER cloud saturated (queues
    #: build, deadlines get stressed) while the LARGER cloud retains
    #: headroom -- the relationship Figs. 5-7 rely on.
    mean_burst_gap_s: float = 8.0
    qos_factor: float = 4.0
    seed: int = 20110516

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ConfigurationError(f"n_servers must be >= 1, got {self.n_servers}")
        if self.vm_budget < 1:
            raise ConfigurationError(f"vm_budget must be >= 1, got {self.vm_budget}")
        if self.raw_jobs < 1:
            raise ConfigurationError(f"raw_jobs must be >= 1, got {self.raw_jobs}")
        if not self.qos_factor > 1:  # NaN too
            raise ConfigurationError(f"qos_factor must be > 1, got {self.qos_factor}")

    def scaled(self, vm_budget: int) -> "EvaluationConfig":
        """A proportionally scaled copy (for quick tests and benches).

        Server count and raw job count shrink with the VM budget so the
        load pressure -- the thing the cloud sizes control -- stays
        comparable.
        """
        if vm_budget < 1:
            raise ConfigurationError(f"vm_budget must be >= 1, got {vm_budget}")
        ratio = vm_budget / self.vm_budget
        # The arrival rate is one burst per (gap + within-burst span);
        # the within-burst span (~ mean burst size * 2 s) does not
        # shrink with the cloud, so scale the *total* burst interval to
        # keep the per-server load pressure constant.
        burst_span_s = 6.0  # EGEETraceConfig defaults: 3 jobs * 2 s
        interval = (self.mean_burst_gap_s + burst_span_s) / max(ratio, 1e-9)
        return EvaluationConfig(
            label=self.label,
            n_servers=max(1, round(self.n_servers * ratio)),
            vm_budget=vm_budget,
            raw_jobs=max(1, round(self.raw_jobs * ratio)),
            mean_burst_gap_s=max(0.0, interval - burst_span_s),
            qos_factor=self.qos_factor,
            seed=self.seed,
        )


#: The reference (loaded) cloud.
SMALLER = EvaluationConfig(label="SMALLER", n_servers=65)

#: The over-dimensioned cloud: ~15% more servers (65 * 1.15 ~ 75).
LARGER = EvaluationConfig(label="LARGER", n_servers=75)
