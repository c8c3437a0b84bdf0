"""Unit-carrying scalar helpers.

The empirical model juggles seconds, joules, watts and joule-seconds
(EDP).  Full-blown unit libraries are overkill for a simulator, but bare
floats invite unit bugs, so we use ``NewType``-style subclasses of
``float``: zero runtime overhead in hot paths (they *are* floats) while
signatures and records document which unit they carry.

Conversions are explicit module-level functions; arithmetic falls back
to plain ``float`` which is the desired behaviour (a ratio of two
``Seconds`` is dimensionless).
"""

from __future__ import annotations


class Seconds(float):
    """A duration or timestamp in seconds."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{float(self):.6g}s"


class Joules(float):
    """An energy amount in joules."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{float(self):.6g}J"


class Watts(float):
    """A power draw in watts."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{float(self):.6g}W"


def energy_delay_product(energy_j: float, time_s: float) -> float:
    """Energy-Delay Product in J*s, the tertiary metric of Table II.

    The paper stores EDP alongside time and energy for every benchmark
    record; it is also a natural single-number proxy for the alpha = 0.5
    trade-off goal.

    Raises
    ------
    ValueError
        If either operand is negative; EDP of negative energy or time is
        meaningless and always indicates an upstream accounting bug.
    """
    energy_j = float(energy_j)
    time_s = float(time_s)
    if energy_j < 0.0:
        raise ValueError(f"energy must be non-negative, got {energy_j}")
    if time_s < 0.0:
        raise ValueError(f"time must be non-negative, got {time_s}")
    return energy_j * time_s


def integrate_power_samples(samples_w: "list[float]", period_s: float = 1.0) -> Joules:
    """Integrate a uniformly sampled power series into energy.

    Mirrors what the paper does with the Watts Up? meter: "We estimate
    the consumed energy by integrating the actual power measures over
    time" at a 1 Hz sampling rate.  Trapezoidal rule; a single sample is
    treated as one full period of constant draw so that very short runs
    still account energy.

    Parameters
    ----------
    samples_w:
        Power samples in watts, uniformly spaced.
    period_s:
        Sampling period in seconds (default 1.0, the meter's rate).
    """
    if period_s <= 0.0:
        raise ValueError(f"sampling period must be positive, got {period_s}")
    n = len(samples_w)
    if n == 0:
        return Joules(0.0)
    if n == 1:
        return Joules(float(samples_w[0]) * period_s)
    total = 0.0
    prev = float(samples_w[0])
    for value in samples_w[1:]:
        value = float(value)
        total += 0.5 * (prev + value) * period_s
        prev = value
    return Joules(total)
