"""Experiment harness: one module per paper artifact.

Every paper artifact that ``repro reproduce`` regenerates maps to a
function here (see DESIGN.md's per-experiment index).  The benchmark
suite under ``benchmarks/`` calls these functions and prints the
paper-shaped output; Tables I and II and the Fig. 3 contract, which no
command runs, live in their benches.  EXPERIMENTS.md records
paper-vs-measured values.

* :mod:`~repro.experiments.fig1_profiles`   -- Fig. 1 utilization traces
* :mod:`~repro.experiments.fig2_basecurve`  -- Fig. 2 FFTW curve
* :mod:`~repro.experiments.fig4_accounting` -- Fig. 4 worked example
* :mod:`~repro.experiments.evaluation`      -- Figs. 5-7 full evaluation
* :mod:`~repro.experiments.report`          -- headline-claim extraction
"""

from repro.common.lazy import lazy_exports

__all__ = [
    "EvaluationConfig",
    "SMALLER",
    "LARGER",
    "fig1_profiles",
    "fig2_basecurve",
    "fig4_worked_example",
    "EvaluationResult",
    "StrategyOutcome",
    "run_evaluation",
    "prepare_workload",
    "headline_claims",
    "format_series_table",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.config": ("EvaluationConfig", "SMALLER", "LARGER"),
        "repro.experiments.fig1_profiles": ("fig1_profiles",),
        "repro.experiments.fig2_basecurve": ("fig2_basecurve",),
        "repro.experiments.fig4_accounting": ("fig4_worked_example",),
        "repro.experiments.evaluation": (
            "EvaluationResult",
            "StrategyOutcome",
            "run_evaluation",
            "prepare_workload",
        ),
        "repro.experiments.report": ("headline_claims", "format_series_table"),
    },
)
