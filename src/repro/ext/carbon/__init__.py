"""Carbon- and price-aware allocation (ROADMAP scenario).

Time-varying grid carbon intensity and energy price as deterministic
piecewise temporal signals, a 3-way alpha/alpha_carbon scoring
extension, per-interval carbon/cost accounting in the simulator, and
temporal shifting of deferrable jobs toward cheap/green windows.
"""

from repro.common.lazy import lazy_exports

__all__ = [
    "DAY_S",
    "J_PER_KWH",
    "CarbonOptions",
    "TemporalSignal",
    "TemporalSignals",
    "daily_carbon_signal",
    "double_peak_price_signal",
    "load_signal",
    "parse_carbon_signal",
    "parse_price_signal",
    "shift_deferrable",
    "signal_from_document",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.ext.carbon.options": ("CarbonOptions",),
        "repro.ext.carbon.shifting": ("shift_deferrable",),
        "repro.ext.carbon.signal": (
            "DAY_S",
            "J_PER_KWH",
            "TemporalSignal",
            "TemporalSignals",
            "daily_carbon_signal",
            "double_peak_price_signal",
            "load_signal",
            "parse_carbon_signal",
            "parse_price_signal",
            "signal_from_document",
        ),
    },
)
