"""The unfused carbon/cost pair that ``TemporalSignals.accrue`` fuses.

``tests/properties/test_carbon_prop.py`` pins ``accrue`` bit-identical
to these on every fast-path branch and its float edges.
"""

from __future__ import annotations

from repro.ext.carbon.signal import J_PER_KWH, TemporalSignals


def carbon_of(signals: TemporalSignals, power_w: float, t0_s: float, t1_s: float) -> float:
    """Carbon mass (gCO2) of drawing ``power_w`` over ``[t0, t1]``."""
    if signals.carbon is None or t1_s <= t0_s:
        return 0.0
    return (power_w / J_PER_KWH) * signals.carbon.integrate(t0_s, t1_s)


def cost_of(signals: TemporalSignals, power_w: float, t0_s: float, t1_s: float) -> float:
    """Energy cost (currency) of drawing ``power_w`` over ``[t0, t1]``."""
    if signals.price is None or t1_s <= t0_s:
        return 0.0
    return (power_w / J_PER_KWH) * signals.price.integrate(t0_s, t1_s)
