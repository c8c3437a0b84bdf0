"""repro: Energy-Aware Application-Centric VM Allocation for HPC Workloads.

A complete Python reproduction of Viswanathan et al., IPDPS Workshops /
IPPS 2011.  See README.md for the tour; the short version:

>>> from repro import build_model, ProactiveAllocator, ServerState, VMRequest
>>> db = build_model()
>>> plan = ProactiveAllocator(db, alpha=1.0).allocate(
...     [VMRequest("vm0", "cpu"), VMRequest("vm1", "cpu")],
...     [ServerState("rack-0")],
... )
>>> plan.n_vms
2

Subpackages
-----------
``repro.testbed``
    The emulated benchmarking testbed (contention + power models).
``repro.profiling``
    Application profiling and intensity classification (Sect. III-A).
``repro.campaign``
    Base/combined benchmarking tests and the CSV database (Sect. III-B/C).
``repro.core``
    The model database and the proactive allocation algorithm (Sect. III-D).
``repro.workloads``
    SWF traces, the EGEE-like generator, cleaning and completion (Sect. IV-B).
``repro.sim``
    The datacenter discrete-event simulation (Sect. IV-A).
``repro.strategies``
    FF/FF-2/FF-3 baselines and the PROACTIVE strategies (Sect. IV-D).
``repro.experiments``
    One module per paper table/figure (Sect. IV-E).
``repro.obs``
    Observability: metrics registry + JSONL span tracer (off by default).
``repro.ext``
    Future-work extension: carbon- and price-aware allocation.

:mod:`repro.api` is the stable public facade; everything not exported
there is internal (see DESIGN.md, "Public API and stability").
"""

from repro.core.allocator import ProactiveAllocator, ServerState, VMRequest
from repro.core.model import ModelDatabase

__version__ = "3.0.0"

__all__ = [
    "__version__",
    "ModelDatabase",
    "ProactiveAllocator",
    "ServerState",
    "VMRequest",
    "build_model",
]


def build_model(**campaign_kwargs) -> ModelDatabase:
    """Run the benchmarking campaign and return the model database.

    Convenience one-liner over :func:`repro.campaign.run_campaign` +
    :meth:`ModelDatabase.from_campaign`; keyword arguments are passed
    through to the campaign.
    """
    from repro.campaign.platformrunner import run_campaign

    return ModelDatabase.from_campaign(run_campaign(**campaign_kwargs))
