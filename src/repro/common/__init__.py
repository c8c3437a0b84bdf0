"""Shared substrate used by every other subpackage.

This package deliberately has no dependency on the rest of :mod:`repro`;
it provides

* :mod:`repro.common.errors` -- the exception hierarchy,
* :mod:`repro.common.quantities` -- thin unit-carrying value helpers
  (seconds, joules, watts) used to keep benchmark records honest,
* :mod:`repro.common.rng` -- seed handling so every stochastic component
  of the reproduction is deterministic,
* :mod:`repro.common.validation` -- argument-checking helpers shared by
  public entry points.
"""

from repro.common.lazy import lazy_exports

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ModelLookupError",
    "AllocationError",
    "InfeasibleAllocationError",
    "QoSViolationError",
    "TraceFormatError",
    "SimulationError",
    "SeedSequenceFactory",
    "derive_rng",
    "Seconds",
    "Joules",
    "Watts",
    "energy_delay_product",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.common.errors": (
            "ReproError",
            "ConfigurationError",
            "ModelLookupError",
            "AllocationError",
            "InfeasibleAllocationError",
            "QoSViolationError",
            "TraceFormatError",
            "SimulationError",
        ),
        "repro.common.rng": ("SeedSequenceFactory", "derive_rng"),
        "repro.common.quantities": (
            "Seconds",
            "Joules",
            "Watts",
            "energy_delay_product",
        ),
    },
)
