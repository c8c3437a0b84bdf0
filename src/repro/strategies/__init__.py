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

from repro.strategies.base import AllocationStrategy, ServerView, VMDescriptor
from repro.strategies.slotfit import (
    BestFitStrategy,
    FirstFitStrategy,
    RandomFitStrategy,
    WorstFitStrategy,
)
from repro.strategies.proactive import ProactiveStrategy
from repro.strategies.registry import STRATEGY_BUILDERS, make_strategy, paper_strategies

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
