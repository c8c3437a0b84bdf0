"""Extensions beyond the paper's evaluated system (its Sect. V agenda).

* :mod:`~repro.ext.carbon` -- carbon- and price-aware allocation:
  temporal signals, per-interval accounting and the third score axis.

Heterogeneous hardware and thermal caps left in 3.0, and reactive VM
migration after 3.0.0; none showed a measured gain (EXPERIMENTS.md,
DESIGN.md "Measured non-goals").  The learned surrogate that would
replace the exhaustive database lives with its ablation benches, in
``benchmarks/learning.py``: no command runs it.
"""
