"""Extensions beyond the paper's evaluated system (its Sect. V agenda).

* :mod:`~repro.ext.carbon`    -- carbon- and price-aware allocation:
  temporal signals, per-interval accounting and the third score axis,
* :mod:`~repro.ext.migration` -- reactive VM migration (the companion
  mechanism the authors studied in their earlier thermal-management
  work and cite as motivation).

Heterogeneous hardware and thermal caps were extensions here until 3.0;
neither showed a measured gain (EXPERIMENTS.md, DESIGN.md "Measured
non-goals").  The learned surrogate that would replace the exhaustive
database lives with its ablation benches, in ``benchmarks/learning.py``:
no command runs it.
"""
