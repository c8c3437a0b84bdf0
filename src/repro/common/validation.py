"""Argument-validation helpers shared by public entry points.

Small, explicit checkers that raise ``ValueError``/``TypeError`` with
messages that name the offending parameter.  Library-internal hot paths
skip these; they guard the public constructors and functions.

The ``parse_*`` family is the single validation path for every typed
user input, wherever it arrives from: the CLI wraps them through
:func:`typed_flag` (bad values become argparse usage errors, exit 2)
and the allocation service calls them directly on decoded JSON bodies
(bad values become ``invalid_request`` error envelopes, HTTP 400).
Both surfaces therefore reject the same input with the same message --
tested in ``tests/common/test_validation.py`` and
``tests/service/test_server.py``.
"""

from __future__ import annotations

import math
from typing import Callable


def check_positive(name: str, value: float) -> float:
    """Require a finite ``value > 0``; return it as float."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require a finite ``value >= 0``; return it as float."""
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it as float.

    Used for utilizations and for the alpha trade-off knob ("alpha in
    (0,...,1)" in the paper's notation).
    """
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_positive_int(name: str, value: int) -> int:
    """Require an integral value >= 1; return it as int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


# -- shared user-input parsers (CLI flags and service request bodies) --


def typed_flag(parse: Callable[[str], object]):
    """Adapt a ``parse_*`` helper for use as an argparse ``type=``.

    ``parse`` raises :class:`ValueError` carrying the user-facing
    message; argparse turns the re-raised ``ArgumentTypeError`` into a
    usage error, so every flag built through here rejects bad values
    identically: same exit code (2), message on stderr.  The service
    uses the same ``parse`` functions directly, so an HTTP 400 error
    envelope carries the exact message ``repro`` would print.
    """
    import argparse

    def typed(text: str):
        try:
            return parse(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return typed


def parse_alpha(value) -> float:
    """``--alpha`` / ``"alpha"``, constrained to the paper's [0, 1] range."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"alpha must be a number, got {value!r}") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(
            f"alpha must be within [0, 1] (1 = minimize energy, 0 = minimize "
            f"time), got {value:g}"
        )
    return value


def parse_alpha_carbon(value) -> float:
    """``--alpha-carbon`` / ``"alpha_carbon"``: the 3-way carbon knob.

    A fraction in [0, 1] weighting the carbon/cost axis of the score;
    0 keeps the 2-way trade-off byte-identical (carbon accounting may
    still run), 1 ranks purely by carbon/cost.
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"alpha-carbon must be a number, got {value!r}") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(
            f"alpha-carbon must be within [0, 1] (0 = ignore carbon/cost, "
            f"1 = minimize carbon/cost only), got {value:g}"
        )
    return value


def parse_meter_accuracy(value) -> float:
    """``--meter-accuracy``: the meter's relative accuracy class.

    A finite number >= 0 (the paper's meter: 0.015); 0 keeps the
    campaign exact.
    """
    try:
        parsed = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"meter-accuracy must be a number, got {value!r}") from None
    if not 0.0 <= parsed < math.inf:
        raise ValueError(f"meter-accuracy must be a finite number >= 0, got {value!r}")
    return parsed


def parse_jobs(value) -> int:
    """``--jobs``, a worker-process count (1 = serial in-process)."""
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"jobs must be an integer >= 1, got {value!r}") from None
    if value < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {value}")
    return value


def parse_shards(value) -> int:
    """``--shards``, the server-group count for sharded campaigns."""
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"shards must be an integer >= 1, got {value!r}") from None
    if value < 1:
        raise ValueError(f"shards must be an integer >= 1, got {value}")
    return value


def parse_format(value) -> str:
    """``--format``, the output style shared by every reporting subcommand."""
    text = str(value).strip().lower()
    if text not in ("text", "json"):
        raise ValueError(f"format must be one of 'text', 'json', got {value!r}")
    return text


def parse_lint_format(value) -> str:
    """``repro lint --format``: the reporting formats plus ``sarif``.

    The linter alone also emits SARIF 2.1.0 for code-scanning UIs;
    every other reporting subcommand stays on :func:`parse_format`.
    """
    text = str(value).strip().lower()
    if text not in ("text", "json", "sarif"):
        raise ValueError(f"format must be one of 'text', 'json', 'sarif', got {value!r}")
    return text


def parse_time_budget(value) -> float:
    """``--time-budget`` / ``"time_budget_s"``: positive finite seconds."""
    try:
        parsed = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"time-budget must be a positive number of seconds, got {value!r}"
        ) from None
    if math.isnan(parsed) or math.isinf(parsed) or parsed <= 0:
        raise ValueError(
            f"time-budget must be a positive finite number of seconds, got {value!r}"
        )
    return parsed


def parse_port(value) -> int:
    """``--port``: a TCP port; 0 binds an ephemeral port."""
    try:
        parsed = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"port must be an integer in [0, 65535], got {value!r}") from None
    if not 0 <= parsed <= 65535:
        raise ValueError(f"port must be an integer in [0, 65535], got {parsed}")
    return parsed


def parse_count(name: str, value, minimum: int = 1) -> int:
    """A strictly integral count >= ``minimum`` (rejects floats and bools).

    The service-body counterpart of :func:`check_positive_int`:
    accepts JSON numbers but refuses silent truncation, so a body with
    ``"n_servers": 2.5`` fails the same way ``--servers 2.5`` does.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
    return value
