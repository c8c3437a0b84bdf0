"""Unit tests for repro.common.validation."""

import math

import pytest

from repro.common.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
    parse_alpha,
    parse_count,
    parse_format,
    parse_jobs,
    parse_port,
    parse_time_budget,
    typed_flag,
)


class TestScalarCheckers:
    def test_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5

    def test_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0.0)

    def test_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_positive_rejects_non_finite_naming_the_value(self, value):
        with pytest.raises(ValueError, match=f"x must be positive and finite, got {value}"):
            check_positive("x", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_negative_rejects_non_finite_naming_the_value(self, value):
        with pytest.raises(ValueError, match=f"x must be non-negative and finite, got {value}"):
            check_non_negative("x", value)

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_fraction_accepts(self, value):
        assert check_fraction("alpha", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_fraction_rejects(self, value):
        with pytest.raises(ValueError, match="alpha"):
            check_fraction("alpha", value)


class TestIntCheckers:
    def test_positive_int(self):
        assert check_positive_int("n", 3) == 3

    def test_positive_int_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int("n", 0)

    def test_positive_int_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int("n", True)

    def test_positive_int_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int("n", 3.0)  # type: ignore[arg-type]


class TestSharedParsers:
    """The single validation path behind CLI flags and service bodies.

    Each ``parse_*`` accepts both the CLI's string form and the
    service's decoded-JSON form, and its ``ValueError`` message is the
    one text both surfaces show (exit 2 vs HTTP 400) -- parity with a
    live server is pinned in ``tests/service/test_server.py``.
    """

    @pytest.mark.parametrize("value", ["0.5", 0.5, 1, "1"])
    def test_alpha_accepts_strings_and_numbers(self, value):
        assert parse_alpha(value) == float(value)

    @pytest.mark.parametrize("value", ["-0.1", 1.5, "two", None])
    def test_alpha_rejects_with_named_message(self, value):
        with pytest.raises(ValueError, match="alpha must be"):
            parse_alpha(value)

    @pytest.mark.parametrize("value", ["0", 0, -2, "1.5", "four", None])
    def test_jobs_rejects(self, value):
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            parse_jobs(value)

    def test_format_normalizes_case(self):
        assert parse_format(" JSON ") == "json"
        with pytest.raises(ValueError, match="format must be one of"):
            parse_format("yaml")

    @pytest.mark.parametrize("value", ["0", -1.5, "nan", "inf", "soon", None])
    def test_time_budget_rejects(self, value):
        with pytest.raises(ValueError, match="time-budget must be"):
            parse_time_budget(value)

    @pytest.mark.parametrize("value", [0, "0", 8765, "65535"])
    def test_port_accepts(self, value):
        assert parse_port(value) == int(value)

    @pytest.mark.parametrize("value", [-1, 65536, "http", None])
    def test_port_rejects(self, value):
        with pytest.raises(ValueError, match=r"port must be an integer in \[0, 65535\]"):
            parse_port(value)

    def test_count_rejects_floats_and_bools(self):
        assert parse_count("n_servers", 4) == 4
        for bad in (2.5, True, 0, "4"):
            with pytest.raises(ValueError, match="n_servers must be an integer >= 1"):
                parse_count("n_servers", bad)

    def test_typed_flag_converts_to_argparse_error(self):
        import argparse

        typed = typed_flag(parse_alpha)
        assert typed("0.5") == 0.5
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            typed("1.5")
        # Identical text to the bare parser: the CLI and the service
        # reject the same value with the same message.
        with pytest.raises(ValueError) as bare:
            parse_alpha("1.5")
        assert str(excinfo.value) == str(bare.value)
