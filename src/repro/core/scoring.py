"""The alpha trade-off objective (paper Sect. III-D).

"we use a parameter alpha to adjust the possible trade-off between
energy efficiency and performance ... alpha emphasizes the energy
efficiency goal while 1-alpha emphasizes performance.  For example, if
alpha=0.7 the algorithm will try to minimize the energy consumption
first (70% of preference) and then the performance but with less
intensity (30% of preference)."

The score of a candidate allocation is::

    score = alpha * E_hat + (1 - alpha) * T_hat

with ``E_hat``/``T_hat`` the candidate's estimated energy/makespan
normalized by the maximum among the candidate set being ranked
(relative normalization keeps both terms commensurate regardless of
units), lower is better.  alpha = 1 ranks purely by energy (PA-1),
alpha = 0 purely by time (PA-0), alpha = 0.5 the balanced goal
(PA-0.5).

Carbon extension (ROADMAP, "Carbon- and price-aware allocation"): a
third knob ``alpha_carbon`` folds time-integrated carbon mass and
energy cost into the trade-off::

    score = (1 - alpha_carbon) * [alpha * E_hat + (1 - alpha) * T_hat]
            + alpha_carbon * C_hat

with ``C_hat`` the candidate's pool-normalized carbon/cost axis (see
:func:`carbon_axis`).  At ``alpha_carbon = 0`` the energy and time
weights multiply by exactly ``1.0``, so the 2-way score -- every
operand of it -- is bit-identical to the pre-carbon scorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.validation import check_fraction, check_non_negative


@dataclass(frozen=True)
class CarbonContext:
    """Inputs of carbon-aware candidate scoring.

    ``signals`` is duck-typed (core must not import :mod:`repro.ext`):
    it exposes ``carbon_mass_g(energy_j, t0_s, t1_s)`` and
    ``energy_cost(energy_j, t0_s, t1_s)``, as implemented by
    :class:`repro.ext.carbon.signal.TemporalSignals`.  ``t_ref_s`` is
    the wall-clock anchor of the batch being allocated: a candidate
    estimated to run for ``T`` seconds is charged the mean signal over
    ``[t_ref_s, t_ref_s + T]``, fixed once per context so every
    candidate of a batch sees the same window origin.
    """

    signals: object
    alpha_carbon: float = 0.0
    t_ref_s: float = 0.0

    def __post_init__(self) -> None:
        check_fraction("alpha_carbon", self.alpha_carbon)
        check_non_negative("t_ref_s", self.t_ref_s)

    def impact(self, energy_j: float, time_s: float) -> tuple[float, float]:
        """(carbon mass gCO2, energy cost) of one candidate's estimate."""
        t1 = self.t_ref_s + time_s
        return (
            self.signals.carbon_mass_g(energy_j, self.t_ref_s, t1),
            self.signals.energy_cost(energy_j, self.t_ref_s, t1),
        )


@dataclass(frozen=True)
class ScoreWeights:
    """The optimization goal: the alpha knob (and the carbon knob).

    ``energy_weight``, ``time_weight`` and ``carbon_weight`` are
    resolved once, at construction: the search reads them on every
    block it scores.  They are plain attributes, not fields, so
    equality, hashing and ``repr`` see only the two knobs.
    """

    alpha: float = 0.5
    alpha_carbon: float = 0.0

    def __post_init__(self) -> None:
        check_fraction("alpha", self.alpha)
        check_fraction("alpha_carbon", self.alpha_carbon)
        # alpha * 1.0 is exact, so the default carbon-free weights are
        # bit-identical to the historical 2-way scorer.
        object.__setattr__(self, "energy_weight", self.alpha * (1.0 - self.alpha_carbon))
        object.__setattr__(
            self, "time_weight", (1.0 - self.alpha) * (1.0 - self.alpha_carbon)
        )
        object.__setattr__(self, "carbon_weight", self.alpha_carbon)

    def describe(self) -> str:
        """Strategy label in the paper's naming (PA-0, PA-0.5, PA-1...)."""
        alpha = self.alpha
        text = f"{alpha:g}"
        if self.alpha_carbon > 0.0:
            return f"PA-{text}-C{self.alpha_carbon:g}"
        return f"PA-{text}"


def score_candidates(
    candidates: Sequence[tuple[float, float]],
    weights: ScoreWeights,
    maxima: tuple[float, float] | None = None,
) -> list[float]:
    """Score (time_s, energy_j) candidate pairs; lower is better.

    Both dimensions are normalized by the maximum over the candidate
    set; a degenerate dimension (all zeros) contributes zero for every
    candidate, leaving the other dimension to discriminate.

    ``maxima`` optionally supplies the (max_time, max_energy)
    normalizers explicitly.  The streaming allocator uses this to score
    a retained Pareto subset exactly as if the full candidate pool were
    present: normalization must divide by the *pool* maxima, which can
    sit on dominated candidates that the stream already discarded.

    Raises
    ------
    ValueError
        On an empty candidate set or negative inputs.
    """
    if not candidates:
        raise ValueError("cannot score an empty candidate set")
    for time_s, energy_j in candidates:
        if time_s < 0 or energy_j < 0:
            raise ValueError(f"negative candidate values: ({time_s}, {energy_j})")
    if maxima is None:
        max_time = max(t for t, _ in candidates)
        max_energy = max(e for _, e in candidates)
    else:
        max_time, max_energy = maxima
        if max_time < 0 or max_energy < 0:
            raise ValueError(f"negative maxima: {maxima}")
    energy_weight = weights.energy_weight
    time_weight = weights.time_weight
    scores: list[float] = []
    for time_s, energy_j in candidates:
        t_hat = time_s / max_time if max_time > 0 else 0.0
        e_hat = energy_j / max_energy if max_energy > 0 else 0.0
        scores.append(energy_weight * e_hat + time_weight * t_hat)
    return scores


def carbon_axis(impacts: Sequence[tuple[float, float]]) -> list[float]:
    """Blend (carbon_g, cost) pairs into one normalized axis in [0, 1].

    Each dimension with a positive pool maximum is normalized by that
    maximum; the axis value is the mean of the present dimensions, so a
    single-signal run uses that signal alone and a two-signal run
    weighs gCO2 and currency equally.  A pool where both dimensions
    are degenerate (no signal contributed anything) maps to all zeros,
    leaving time and energy to discriminate.
    """
    if not impacts:
        raise ValueError("cannot build a carbon axis from an empty pool")
    max_carbon = max(carbon for carbon, _ in impacts)
    max_cost = max(cost for _, cost in impacts)
    if max_carbon < 0.0 or max_cost < 0.0:
        raise ValueError(f"negative carbon-axis inputs: {(max_carbon, max_cost)}")
    present = (1 if max_carbon > 0.0 else 0) + (1 if max_cost > 0.0 else 0)
    if present == 0:
        return [0.0] * len(impacts)
    return [
        (
            (carbon / max_carbon if max_carbon > 0.0 else 0.0)
            + (cost / max_cost if max_cost > 0.0 else 0.0)
        )
        / present
        for carbon, cost in impacts
    ]


def score_candidates_carbon(
    candidates: Sequence[tuple[float, float, float]],
    weights: ScoreWeights,
    maxima: tuple[float, float] | None = None,
) -> list[float]:
    """Score (time_s, energy_j, carbon_hat) triples; lower is better.

    Time and energy normalize exactly as :func:`score_candidates`
    (optionally against explicit pool ``maxima``); the third entry is
    the already pool-normalized carbon/cost axis from
    :func:`carbon_axis` and is weighed by ``weights.carbon_weight``.
    """
    if not candidates:
        raise ValueError("cannot score an empty candidate set")
    for time_s, energy_j, carbon_hat in candidates:
        if time_s < 0 or energy_j < 0 or carbon_hat < 0:
            raise ValueError(
                f"negative candidate values: ({time_s}, {energy_j}, {carbon_hat})"
            )
    if maxima is None:
        max_time = max(t for t, _, _ in candidates)
        max_energy = max(e for _, e, _ in candidates)
    else:
        max_time, max_energy = maxima
        if max_time < 0 or max_energy < 0:
            raise ValueError(f"negative maxima: {maxima}")
    energy_weight = weights.energy_weight
    time_weight = weights.time_weight
    carbon_weight = weights.carbon_weight
    scores: list[float] = []
    for time_s, energy_j, carbon_hat in candidates:
        t_hat = time_s / max_time if max_time > 0 else 0.0
        e_hat = energy_j / max_energy if max_energy > 0 else 0.0
        scores.append(
            energy_weight * e_hat + time_weight * t_hat + carbon_weight * carbon_hat
        )
    return scores


def best_candidate_index(scores: Sequence[float]) -> int:
    """Index of the lowest score; ties resolve to the earliest.

    The earliest-wins tie-break implements the paper's rule "If two
    partitions have the same rank in different servers, we select the
    first server of the list" (candidates are enumerated in
    server-list order).  A later score must beat the best so far by
    more than 1e-12 to win: two mixes can score equal up to rounding.
    """
    best = 0
    for i in range(1, len(scores)):
        if scores[i] < scores[best] - 1e-12:
            best = i
    return best
