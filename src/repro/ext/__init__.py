"""Extensions beyond the paper's evaluated system (its Sect. V agenda).

* :mod:`~repro.ext.carbon`    -- carbon- and price-aware allocation:
  temporal signals, per-interval accounting and the third score axis,
* :mod:`~repro.ext.learning`  -- a learned surrogate replacing the
  exhaustive database ("using machine learning techniques to extract
  on-the-fly a model out of the sub-system utilization data"),
* :mod:`~repro.ext.migration` -- reactive VM migration (the companion
  mechanism the authors studied in their earlier thermal-management
  work and cite as motivation).

Heterogeneous hardware and thermal caps were extensions here until 3.0;
neither showed a measured gain (EXPERIMENTS.md, DESIGN.md "Measured
non-goals").
"""
