"""Carbon figures: golden byte-stability, plus CLI flag validation.

The two carbon figures are pure functions of (vm_budget, seed,
alpha_carbon); their rendered JSON documents are committed under
``tests/ext/data`` and compared byte-for-byte, so any drift in the
signal math, the scorer, the shifter, or the simulator's accounting
shows up as a golden diff.  The CLI tests pin the usage-error surface:
malformed signal files and out-of-range knobs exit 2 through the same
typed-flag path as every other bad flag.
"""

import json
import os

import pytest

from repro.cli import build_parser, main
from tests.ext.carbon_figures import (
    CarbonFigure,
    CarbonStrategyPoint,
    carbon_figures,
    figure_document,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def golden_bytes(name: str) -> str:
    with open(os.path.join(DATA_DIR, name), "r", encoding="utf-8") as handle:
        return handle.read()


def render(figure: CarbonFigure) -> str:
    return json.dumps(figure_document(figure), indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def figures(campaign):
    return carbon_figures(vm_budget=300, seed=7, campaign=campaign)


class TestGoldenFigures:
    def test_cost_figure_bytes_stable(self, figures):
        assert render(figures[0]) == golden_bytes("carbon_figure_cost.json")

    def test_carbon_figure_bytes_stable(self, figures):
        assert render(figures[1]) == golden_bytes("carbon_figure_gco2.json")

    def test_figure_shape(self, figures):
        cost_figure, carbon_figure = figures
        assert cost_figure.units == "EUR"
        assert carbon_figure.units == "gCO2"
        for figure in figures:
            assert len(figure.points) == 6  # the paper's strategy lineup
            for point in figure.points:
                assert point.no_shift > 0.0
                assert point.shifted > 0.0

    def test_saving_pct(self):
        point = CarbonStrategyPoint(strategy="X", no_shift=200.0, shifted=150.0)
        assert point.saving_pct == 25.0
        assert CarbonStrategyPoint("X", 0.0, 0.0).saving_pct == 0.0


class TestCliValidation:
    """Bad carbon flags exit 2 with a pointed message, like every flag."""

    def parse_fails(self, argv, capsys, needle):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert needle in capsys.readouterr().err

    def test_alpha_carbon_out_of_range(self, capsys):
        self.parse_fails(
            ["simulate", "--alpha-carbon", "1.5"], capsys, "within [0, 1]"
        )
        self.parse_fails(
            ["evaluate", "--alpha-carbon", "-0.1"], capsys, "within [0, 1]"
        )
        self.parse_fails(
            ["allocate", "--model", "m", "--alpha-carbon", "x"], capsys, "number"
        )

    def test_missing_signal_file(self, capsys):
        self.parse_fails(
            ["simulate", "--carbon-signal", "/does/not/exist.json"],
            capsys,
            "cannot read signal file",
        )

    def test_malformed_signal_file(self, capsys, signal_file):
        self.parse_fails(
            ["simulate", "--carbon-signal", signal_file(None, raw="{broken")],
            capsys,
            "not valid JSON",
        )
        self.parse_fails(
            [
                "simulate",
                "--price-signal",
                signal_file({"kind": "step", "period_s": 10.0, "points": []}),
            ],
            capsys,
            "non-empty array",
        )
        self.parse_fails(
            [
                "simulate",
                "--carbon-signal",
                signal_file(
                    {"kind": "step", "period_s": 10.0, "points": [[5.0, 1.0]]}
                ),
            ],
            capsys,
            "start at 0.0",
        )

    def test_non_utf8_signal_file_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "signal.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--carbon-signal", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"repro simulate: error: argument --carbon-signal: signal file {path} "
            "is not UTF-8 text: invalid start byte"
        ]

    def test_bad_synthetic_seed(self, capsys):
        self.parse_fails(
            ["simulate", "--carbon-signal", "synthetic:banana"],
            capsys,
            "integer",
        )

    def test_knobs_require_a_signal(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--alpha-carbon", "0.5"])
        assert excinfo.value.code == 2
        assert "--alpha-carbon requires" in capsys.readouterr().err

    def test_shift_requires_signal_and_qos(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--shift-deferrable"])
        assert excinfo.value.code == 2
        assert "--shift-deferrable requires" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--carbon-signal", "synthetic", "--shift-deferrable"])
        assert excinfo.value.code == 2
        assert "--qos-factor" in capsys.readouterr().err

    def test_alpha_carbon_rejects_time_budget(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "evaluate",
                    "--carbon-signal",
                    "synthetic",
                    "--alpha-carbon",
                    "0.5",
                    "--time-budget",
                    "1",
                ]
            )
        assert excinfo.value.code == 2
        assert "time-budget" in capsys.readouterr().err

    def test_alpha_carbon_requires_pa_strategy(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "simulate",
                    "--carbon-signal",
                    "synthetic",
                    "--alpha-carbon",
                    "0.5",
                    "--strategy",
                    "FF-2",
                ]
            )
        assert excinfo.value.code == 2
        assert "PA-<alpha>" in capsys.readouterr().err
