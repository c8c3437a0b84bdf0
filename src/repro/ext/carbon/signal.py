"""Deterministic piecewise temporal signals (carbon intensity, price).

The carbon-aware scenario (ROADMAP, "Carbon- and price-aware
allocation") needs two time-varying grid signals: carbon intensity in
gCO2/kWh and energy price in currency/kWh.  Both are modeled as
validated periodic piecewise series -- ``step`` (constant per segment)
or ``linear`` (interpolated between breakpoints, wrapping back to the
first value at the period boundary) -- with *exact* closed-form
integration: step segments integrate as rectangles, linear segments as
trapezoids, and multi-period spans decompose into whole periods plus
partial-period prefixes.

Determinism contract: :meth:`TemporalSignal.integrate` is implemented
as ``(k1 - k0) * period_integral + (partial(r1) - partial(r0))`` over
canonical period residues, so translating a span by whole periods
leaves every operand -- and therefore the result -- bit-identical (the
property suite pins this).  The synthetic generators draw their jitter
through :class:`repro.common.rng.SeedSequenceFactory`, so a seed fully
determines a signal.

Validation raises :class:`ValueError` with user-facing messages; the
CLI adapts the loaders through ``typed_flag`` (malformed signal files
become argparse usage errors, exit 2).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from repro.common.seeds import DEFAULT_SEED
from repro.common.validation import check_positive

#: Seconds per day -- the period of the synthetic grid signals.
DAY_S = 86_400.0
#: Joules per kilowatt-hour (power_w * seconds / this = kWh).
J_PER_KWH = 3.6e6

SIGNAL_KINDS = ("step", "linear")


@dataclass(frozen=True)
class TemporalSignal:
    """A validated periodic piecewise time series.

    ``times_s`` are the breakpoints of one period: strictly increasing,
    starting at exactly 0.0, all below ``period_s``.  ``values`` holds
    one sample per breakpoint.  A ``step`` signal is constant at
    ``values[i]`` on ``[times_s[i], next breakpoint)``; a ``linear``
    signal interpolates between consecutive samples and wraps from the
    last breakpoint back to ``values[0]`` at the period boundary (so
    the periodic extension is continuous).
    """

    times_s: tuple[float, ...]
    values: tuple[float, ...]
    period_s: float
    kind: str = "step"
    name: str = ""
    units: str = ""
    #: Derived per-segment integrals and their running prefix sums,
    #: computed once at construction; excluded from equality/repr so
    #: two signals with equal samples compare equal.
    _segment_integrals: tuple[float, ...] = field(
        init=False, compare=False, repr=False, default=()
    )
    _prefix_integrals: tuple[float, ...] = field(
        init=False, compare=False, repr=False, default=()
    )

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times_s)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "period_s", check_positive("period_s", self.period_s))
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(
                f"signal kind must be one of {SIGNAL_KINDS}, got {self.kind!r}"
            )
        if not times:
            raise ValueError("signal needs at least one breakpoint")
        if len(times) != len(values):
            raise ValueError(
                f"signal has {len(times)} breakpoints but {len(values)} values"
            )
        if times[0] != 0.0:
            raise ValueError(
                f"signal breakpoints must start at 0.0, got {times[0]}"
            )
        for i in range(1, len(times)):
            if not times[i] > times[i - 1]:
                raise ValueError(
                    f"signal breakpoints must be strictly increasing "
                    f"(index {i}: {times[i]} <= {times[i - 1]})"
                )
        if times[-1] >= self.period_s:
            raise ValueError(
                f"signal breakpoints must stay below the period "
                f"({times[-1]} >= {self.period_s})"
            )
        for i, value in enumerate(values):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(
                    f"signal values must be finite and >= 0 (index {i}: {value})"
                )
        segments: list[float] = []
        prefixes: list[float] = [0.0]
        total = 0.0
        for i in range(len(times)):
            t_end, v_end = self._segment_end(i)
            width = t_end - times[i]
            if self.kind == "step":
                segment = values[i] * width
            else:
                segment = 0.5 * (values[i] + v_end) * width
            segments.append(segment)
            total += segment
            prefixes.append(total)
        object.__setattr__(self, "_segment_integrals", tuple(segments))
        object.__setattr__(self, "_prefix_integrals", tuple(prefixes))

    def _segment_end(self, index: int) -> tuple[float, float]:
        """(end time, end value) of segment ``index`` within one period
        (the last segment wraps to ``values[0]`` at the period)."""
        if index + 1 < len(self.times_s):
            return self.times_s[index + 1], self.values[index + 1]
        return self.period_s, self.values[0]

    @property
    def period_integral(self) -> float:
        """Exact integral of the signal over one full period."""
        return self._prefix_integrals[-1]

    @property
    def period_mean(self) -> float:
        """Mean signal value over one period (a natural normalizer)."""
        return self.period_integral / self.period_s

    def _locate(self, t_s: float) -> tuple[float, float]:
        """Decompose ``t_s >= 0`` into (whole periods, canonical residue).

        ``math.fmod`` computes the residue *exactly* (IEEE remainder of
        the two doubles), so ``0 <= r < period`` holds for every input
        -- unlike ``t - k*period``, whose product can round -- and
        CPython derives ``//`` from the same fmod, so the pair is
        consistent: ``t == k*period + r`` in real arithmetic.
        """
        if t_s < 0.0:
            raise ValueError(f"signal time must be >= 0, got {t_s}")
        period = self.period_s
        return float(t_s // period), math.fmod(t_s, period)

    def _partial(self, r_s: float) -> float:
        """Exact integral over ``[0, r_s)`` within one period."""
        index = bisect_right(self.times_s, r_s) - 1
        t_start = self.times_s[index]
        width = r_s - t_start
        if self.kind == "step":
            local = self.values[index] * width
        else:
            t_end, v_end = self._segment_end(index)
            v_start = self.values[index]
            v_at = v_start + (v_end - v_start) * (width / (t_end - t_start))
            local = 0.5 * (v_start + v_at) * width
        return self._prefix_integrals[index] + local

    def value_at(self, t_s: float) -> float:
        """The signal value at ``t_s`` under periodic extension."""
        _, r = self._locate(t_s)
        index = bisect_right(self.times_s, r) - 1
        if self.kind == "step":
            return self.values[index]
        t_start = self.times_s[index]
        t_end, v_end = self._segment_end(index)
        v_start = self.values[index]
        return v_start + (v_end - v_start) * ((r - t_start) / (t_end - t_start))

    def integrate(self, t0_s: float, t1_s: float) -> float:
        """Exact integral of the periodic extension over ``[t0, t1]``.

        Decomposes both endpoints into (whole periods, residue) first,
        so spans translated by whole periods reuse the exact same
        operands: ``integrate(t0 + k*P, t1 + k*P)`` is bit-identical to
        ``integrate(t0, t1)`` whenever the translated endpoints are
        exactly representable.

        Spans inside a single segment of a single period -- the
        simulator's per-interval accounting hot path -- take an inlined
        closed-form branch (rectangle or trapezoid on the residues,
        themselves translation-invariant); the branch choice is a pure
        function of the inputs, so every caller of the same span gets
        the same bits.
        """
        if t0_s < 0.0:
            raise ValueError(f"signal time must be >= 0, got {t0_s}")
        if t1_s < t0_s:
            raise ValueError(f"integration span ends before it starts: ({t0_s}, {t1_s})")
        period = self.period_s
        k0 = t0_s // period
        r0 = math.fmod(t0_s, period)
        k1 = t1_s // period
        r1 = math.fmod(t1_s, period)
        times = self.times_s
        if k0 == k1 and r1 >= r0:
            index = bisect_right(times, r0) - 1
            t_end = times[index + 1] if index + 1 < len(times) else period
            if r1 <= t_end:
                if self.kind == "step":
                    return self.values[index] * (r1 - r0)
                values = self.values
                v_start = values[index]
                v_end = values[index + 1] if index + 1 < len(values) else values[0]
                t_start = times[index]
                slope = (v_end - v_start) / (t_end - t_start)
                v0 = v_start + slope * (r0 - t_start)
                v1 = v_start + slope * (r1 - t_start)
                return 0.5 * (v0 + v1) * (r1 - r0)
        return (k1 - k0) * self.period_integral + (self._partial(r1) - self._partial(r0))

    def mean(self, t0_s: float, t1_s: float) -> float:
        """Mean signal value over ``[t0, t1]`` (``value_at(t0)`` for an
        empty span, so point-in-time queries stay well-defined)."""
        if t1_s <= t0_s:
            return self.value_at(t0_s)
        return self.integrate(t0_s, t1_s) / (t1_s - t0_s)

    def breakpoints_between(self, t0_s: float, t1_s: float) -> list[float]:
        """Absolute breakpoint times of the periodic extension within
        ``[t0, t1]``, ascending (used to seed the temporal shifter's
        candidate delays)."""
        if t1_s < t0_s:
            raise ValueError(f"span ends before it starts: ({t0_s}, {t1_s})")
        k0, _ = self._locate(t0_s)
        k1, _ = self._locate(t1_s)
        out: list[float] = []
        k = k0
        while k <= k1:
            base = k * self.period_s
            for t in self.times_s:
                absolute = base + t
                if t0_s <= absolute <= t1_s:
                    out.append(absolute)
            k += 1.0
        return out

    def document(self) -> dict:
        """JSON-ready description (the on-disk signal-file format)."""
        return {
            "kind": self.kind,
            "period_s": self.period_s,
            "points": [[t, v] for t, v in zip(self.times_s, self.values)],
            "name": self.name,
            "units": self.units,
        }


def signal_from_document(document: object, source: str = "signal") -> TemporalSignal:
    """Build a :class:`TemporalSignal` from a decoded JSON document.

    Raises :class:`ValueError` naming ``source`` on any malformation,
    so CLI flags and file loaders report the offending input.
    """
    if not isinstance(document, dict):
        raise ValueError(f"{source}: signal document must be a JSON object")
    for key in ("kind", "period_s", "points"):
        if key not in document:
            raise ValueError(f"{source}: signal document missing key {key!r}")
    points = document["points"]
    if not isinstance(points, list) or not points:
        raise ValueError(f"{source}: 'points' must be a non-empty array")
    times: list[float] = []
    values: list[float] = []
    for i, point in enumerate(points):
        if (
            not isinstance(point, (list, tuple))
            or len(point) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in point)
        ):
            raise ValueError(
                f"{source}: point {i} must be a [time_s, value] number pair, "
                f"got {point!r}"
            )
        times.append(float(point[0]))
        values.append(float(point[1]))
    period = document["period_s"]
    if isinstance(period, bool) or not isinstance(period, (int, float)):
        raise ValueError(f"{source}: 'period_s' must be a number, got {period!r}")
    try:
        return TemporalSignal(
            times_s=tuple(times),
            values=tuple(values),
            period_s=float(period),
            kind=str(document["kind"]),
            name=str(document.get("name", "")),
            units=str(document.get("units", "")),
        )
    except ValueError as error:
        raise ValueError(f"{source}: {error}") from None


def load_signal(path: str) -> TemporalSignal:
    """Load a signal file (the :meth:`TemporalSignal.document` format)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise ValueError(f"cannot read signal file {path}: {error}") from None
    except UnicodeDecodeError as error:
        raise ValueError(f"signal file {path} is not UTF-8 text: {error.reason}") from None
    except json.JSONDecodeError as error:
        raise ValueError(f"signal file {path} is not valid JSON: {error}") from None
    return signal_from_document(document, source=path)


# -- synthetic generators (SNIPPETS' DC-simulator daily shapes) --------


def daily_carbon_signal(seed: int = DEFAULT_SEED) -> TemporalSignal:
    """Synthetic daily grid carbon intensity: a 140-280 gCO2/kWh cycle.

    One cosine dip per day (cleanest around 04:00, dirtiest around
    16:00) sampled hourly with seeded jitter, clipped back into the
    140-280 band so the documented range holds exactly.
    """
    # numpy (behind the seed streams) loads only when a signal is drawn.
    from repro.common.rng import SeedSequenceFactory

    rng = SeedSequenceFactory(seed).child("carbon-signal-daily")
    jitter = rng.uniform(-8.0, 8.0, 24)
    values = []
    for hour in range(24):
        base = 210.0 - 70.0 * math.cos(2.0 * math.pi * (hour - 4.0) / 24.0)
        values.append(min(280.0, max(140.0, base + float(jitter[hour]))))
    return TemporalSignal(
        times_s=tuple(3600.0 * hour for hour in range(24)),
        values=tuple(values),
        period_s=DAY_S,
        kind="linear",
        name=f"synthetic-daily-carbon(seed={seed})",
        units="gCO2/kWh",
    )


def double_peak_price_signal(seed: int = DEFAULT_SEED) -> TemporalSignal:
    """Synthetic daily energy price with morning and evening peaks.

    Two Gaussian bumps (around 08:30 and 19:00) over a flat base,
    sampled hourly with seeded jitter -- the classic double-peak spot
    shape the DC-simulator snippet models.
    """
    from repro.common.rng import SeedSequenceFactory

    rng = SeedSequenceFactory(seed).child("price-signal-double-peak")
    jitter = rng.uniform(-0.004, 0.004, 24)
    values = []
    for hour in range(24):
        base = (
            0.11
            + 0.09 * math.exp(-(((hour - 8.5) / 2.0) ** 2))
            + 0.13 * math.exp(-(((hour - 19.0) / 2.5) ** 2))
        )
        values.append(min(0.30, max(0.06, base + float(jitter[hour]))))
    return TemporalSignal(
        times_s=tuple(3600.0 * hour for hour in range(24)),
        values=tuple(values),
        period_s=DAY_S,
        kind="linear",
        name=f"synthetic-double-peak-price(seed={seed})",
        units="EUR/kWh",
    )


def _parse_signal_spec(value: str, kind: str, synthetic) -> TemporalSignal:
    text = str(value).strip()
    if not text:
        raise ValueError(f"{kind} signal spec must not be empty")
    if text == "synthetic":
        return synthetic()
    if text.startswith("synthetic:"):
        seed_text = text[len("synthetic:"):]
        try:
            seed = int(seed_text)
        except ValueError:
            raise ValueError(
                f"{kind} signal spec 'synthetic:<seed>' needs an integer "
                f"seed, got {seed_text!r}"
            ) from None
        return synthetic(seed)
    return load_signal(text)


def parse_carbon_signal(value: str) -> TemporalSignal:
    """``--carbon-signal``: ``synthetic``, ``synthetic:<seed>``, or a
    signal-file path."""
    return _parse_signal_spec(value, "carbon", daily_carbon_signal)


def parse_price_signal(value: str) -> TemporalSignal:
    """``--price-signal``: ``synthetic``, ``synthetic:<seed>``, or a
    signal-file path."""
    return _parse_signal_spec(value, "price", double_peak_price_signal)


@dataclass(frozen=True)
class TemporalSignals:
    """The (carbon, price) signal pair the simulator accounts against.

    This is the opaque ``signals`` object carried by
    :class:`repro.sim.datacenter.DatacenterConfig`: the sim layer never
    imports this module.  It calls the duck-typed :meth:`accrue` once
    per simulated interval, in ``ServerRuntime.sync`` (an absent signal
    contributes exactly 0.0).
    """

    carbon: TemporalSignal | None = None
    price: TemporalSignal | None = None

    def __post_init__(self) -> None:
        if self.carbon is None and self.price is None:
            raise ValueError("temporal signals need a carbon or a price signal")

    # -- interval accounting (sim layer: constant power over a span) --

    def accrue(self, power_w: float, t0_s: float, t1_s: float) -> "tuple[float, float]":
        """Carbon mass (gCO2) and energy cost of drawing ``power_w``
        over ``[t0, t1]``, in one dispatch.

        The simulator accounts both axes on every interval; fusing the
        pair halves the per-span call overhead.  Each axis is
        ``(power_w / J_PER_KWH) * signal.integrate(t0, t1)``, 0 without
        that signal; ``tests/oracles/carbon.py`` keeps the unfused pair
        this is pinned bit-identical to.
        """
        if t1_s <= t0_s:
            return 0.0, 0.0
        scale = power_w / J_PER_KWH
        carbon = self.carbon
        price = self.price
        if (
            carbon is not None
            and price is not None
            and t0_s >= 0.0
            and carbon.kind == "step"
            and price.kind == "step"
            and carbon.period_s == price.period_s
        ):
            # Both signals share the period, so the (whole periods,
            # residue) decomposition -- a pure function of (t, period)
            # -- is computed once and reused; each branch below repeats
            # integrate()'s own operations on the same operands, so the
            # results are bit-identical to the unfused calls.
            period = carbon.period_s
            k0 = t0_s // period
            r0 = math.fmod(t0_s, period)
            k1 = t1_s // period
            r1 = math.fmod(t1_s, period)
            if k0 == k1 and r1 >= r0:
                c_times = carbon.times_s
                c_index = bisect_right(c_times, r0) - 1
                c_end = (
                    c_times[c_index + 1] if c_index + 1 < len(c_times) else period
                )
                p_times = price.times_s
                p_index = bisect_right(p_times, r0) - 1
                p_end = (
                    p_times[p_index + 1] if p_index + 1 < len(p_times) else period
                )
                if r1 <= c_end and r1 <= p_end:
                    return (
                        scale * (carbon.values[c_index] * (r1 - r0)),
                        scale * (price.values[p_index] * (r1 - r0)),
                    )
            return (
                scale * carbon.integrate(t0_s, t1_s),
                scale * price.integrate(t0_s, t1_s),
            )
        return (
            0.0 if carbon is None else scale * carbon.integrate(t0_s, t1_s),
            0.0 if price is None else scale * price.integrate(t0_s, t1_s),
        )

    # -- candidate scoring (core layer: an energy total over a window) --

    def carbon_mass_g(self, energy_j: float, t0_s: float, t1_s: float) -> float:
        """Carbon mass of spending ``energy_j`` uniformly over ``[t0, t1]``."""
        if self.carbon is None:
            return 0.0
        return (energy_j / J_PER_KWH) * self.carbon.mean(t0_s, t1_s)

    def energy_cost(self, energy_j: float, t0_s: float, t1_s: float) -> float:
        """Cost of spending ``energy_j`` uniformly over ``[t0, t1]``."""
        if self.price is None:
            return 0.0
        return (energy_j / J_PER_KWH) * self.price.mean(t0_s, t1_s)
