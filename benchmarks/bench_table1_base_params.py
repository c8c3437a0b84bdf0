"""Table I: optimal-scenario parameters from the base tests.

Prints the regenerated table (OSPx / OSEx / OSx / Tx per class) and
times the three 16-point base-test sweeps plus extraction.
:func:`table1_parameters` is the Table I contract; it lives here
because only this bench and its tests run it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.base_tests import run_base_tests
from repro.campaign.optimal import OptimalScenarios, extract_optima
from repro.testbed.contention import ContentionParams
from repro.testbed.spec import ServerSpec, default_server


@dataclass(frozen=True)
class Table1Result:
    """Table I, plus the raw curves it came from."""

    optima: OptimalScenarios

    def rows(self) -> list[list[str]]:
        """Printable Table I: header plus one row per parameter family."""
        header = ["", "CPU", "Memory", "I/O"]
        osp = ["#VMs that optimize performance (OSP)"]
        ose = ["#VMs that optimize energy (OSE)"]
        osx = ["OS = max(OSP, OSE)"]
        t = ["Run time of single test on 1 VM (T)"]
        for entry in self.optima.table_rows():
            _, p, e, t_single = entry
            osp.append(str(p))
            ose.append(str(e))
            t.append(f"{t_single:.0f}s")
        for value in self.optima.grid_bounds:
            osx.append(str(value))
        return [header, osp, ose, osx, t]


def table1_parameters(
    server: ServerSpec | None = None,
    params: ContentionParams | None = None,
    max_vms: int = 16,
) -> Table1Result:
    """Run all three base-test sweeps and extract Table I."""
    server = server or default_server()
    curves = run_base_tests(server, params=params, max_vms=max_vms)
    return Table1Result(optima=extract_optima(curves))


def test_table1_base_parameters(benchmark):
    result = benchmark.pedantic(table1_parameters, rounds=3, iterations=1)

    print("\n=== Table I: summary of parameters obtained in base tests ===")
    for row in result.rows():
        print("".join(f"{cell:>38s}" if i == 0 else f"{cell:>10s}" for i, cell in enumerate(row)))

    optima = result.optima
    assert optima.optima("cpu").osp == 9  # Fig. 2's optimum
    assert optima.grid_bounds == (optima.osc, optima.osm, optima.osi)
