"""VM allocation strategies (paper Sect. IV-D).

* FIRST-FIT (FF): fill servers in list order, one VM per CPU slot;
  FF-2 / FF-3 allow multiplexing 2 / 3 VMs per CPU.
* PROACTIVE (PA-alpha): the application-centric allocator of
  Sect. III-D driving placement through the model database; PA-1
  minimizes energy, PA-0 minimizes execution time, PA-0.5 balances.

Extra baselines beyond the paper (useful for ablations): BEST-FIT,
WORST-FIT and RANDOM-FIT over CPU slots.  All four slot-based
strategies live in :mod:`repro.strategies.slotfit`: one candidate
source, one placement loop for BF/WF/RAND, and FF's lazy walk.

All strategies implement :class:`~repro.strategies.base
.AllocationStrategy`: given one job's VMs and the live cluster view,
return a placement map or ``None`` (job must queue).
"""

from repro.common.lazy import lazy_exports

__all__ = [
    "AllocationStrategy",
    "ServerView",
    "VMDescriptor",
    "FirstFitStrategy",
    "BestFitStrategy",
    "WorstFitStrategy",
    "RandomFitStrategy",
    "ProactiveStrategy",
    "STRATEGY_BUILDERS",
    "make_strategy",
    "paper_strategies",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.strategies.base": ("AllocationStrategy", "ServerView", "VMDescriptor"),
        "repro.strategies.slotfit": (
            "BestFitStrategy",
            "FirstFitStrategy",
            "RandomFitStrategy",
            "WorstFitStrategy",
        ),
        "repro.strategies.proactive": ("ProactiveStrategy",),
        "repro.strategies.registry": (
            "STRATEGY_BUILDERS",
            "make_strategy",
            "paper_strategies",
        ),
    },
)
