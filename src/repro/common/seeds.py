"""The root seed every seeded component defaults to.

Kept apart from :mod:`repro.common.rng`, which imports numpy, so that
code naming the default (``AnytimeConfig.seed``) loads without it.
"""

#: Default root seed used across examples/benchmarks when the caller
#: does not specify one.  Any fixed value works; this one is arbitrary.
DEFAULT_SEED = 20110516  # IPDPS 2011 conference date
