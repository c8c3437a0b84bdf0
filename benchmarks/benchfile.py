"""The one BENCH file format shared by every ``benchmarks/BENCH_*.json``.

A BENCH file is one JSON object:

* ``format`` -- :data:`FORMAT`, the version of this shape (owned here,
  independent of every wire or lint schema in the package);
* ``bench`` -- the script that wrote the file;
* ``host`` -- ``{"cpu_count": N}`` of the recording host;
* ``config`` -- free-form settings of the run, never gated;
* ``metrics`` -- a list of entries ``{name, unit, better, samples}``,
  each optionally carrying a ``gate`` and, for a value derived from
  other metrics, the ``inputs`` it was computed from.

A gate holds exactly one bound: ``max`` or ``min`` on the median of the
samples, or ``equals``, which every sample must match (the identity
verdicts).  An optional ``min_cpus`` enforces the gate only when the
recording host had at least that many CPUs.

Benches build entries with :func:`metric` and write them with
:func:`write`; ``scripts/check_bench_regression.py`` reads them back
with :func:`load`, which raises :class:`BenchFileError` naming the file
and the field on anything that does not follow this shape.  A ``quick``
(smoke-test) run writes its file to the system temp directory, never
over the committed one, so every committed file comes from a full run
and declares every gate.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

#: Version of the BENCH file shape; bump on a breaking change.
FORMAT = 1
GATE_KINDS = ("max", "min", "equals")
BETTER = ("lower", "higher")


class BenchFileError(ValueError):
    """A BENCH file that cannot be read or does not follow the format."""


def metric(name, unit, better, samples, *, gate=None, inputs=()):
    """One metrics entry; ``gate`` is e.g. ``{"max": 0.05}``."""
    entry = {"name": name, "unit": unit, "better": better, "samples": list(samples)}
    if gate is not None:
        entry["gate"] = dict(gate)
    if inputs:
        entry["inputs"] = list(inputs)
    return entry


def identity(name, verdicts):
    """Bit-identity verdicts, one per sample, gated to hold on every one."""
    return metric(name, "bool", "higher", [bool(v) for v in verdicts],
                  gate={"equals": True})


def write(path: Path, bench: str, config: dict, metrics: list, *,
          quick: bool = False) -> dict:
    """Validate and write one BENCH file; returns the document.

    A ``quick`` run writes a file of the same name in the system temp
    directory instead of ``path``.
    """
    if quick:
        path = Path(tempfile.gettempdir()) / Path(path).name
    document = {
        "format": FORMAT,
        "bench": bench,
        "host": {"cpu_count": os.cpu_count() or 1},
        "config": config,
        "metrics": metrics,
    }
    validate(document, Path(path).name)
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")
    return document


def load(path: Path) -> dict:
    """Read and validate one BENCH file."""
    path = Path(path)
    try:
        document = json.loads(path.read_bytes().decode("utf-8"))
    except OSError as error:
        raise BenchFileError(f"{path}: cannot read: {error.strerror}") from None
    except UnicodeDecodeError:
        raise BenchFileError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as error:
        raise BenchFileError(
            f"{path}: not valid JSON: {error.msg} at line {error.lineno} "
            f"column {error.colno}"
        ) from None
    validate(document, str(path))
    return document


def _is_number(value) -> bool:
    """A JSON number other than NaN (which every bound would let pass)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and not math.isnan(value)
    )


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def validate(document, where: str) -> None:
    """Raise :class:`BenchFileError` unless ``document`` follows the format."""

    def fail(field, message):
        raise BenchFileError(f"{where}: field {field!r}: {message}")

    if not isinstance(document, dict):
        raise BenchFileError(f"{where}: top level is not a JSON object")
    if document.get("format") != FORMAT:
        fail("format", f"expected {FORMAT}, got {document.get('format')!r}")
    host = document.get("host")
    cpus = host.get("cpu_count") if isinstance(host, dict) else None
    if not _is_count(cpus):
        fail("host.cpu_count", f"expected a positive integer, got {cpus!r}")
    if not isinstance(document.get("config"), dict):
        fail("config", "expected an object")
    metrics = document.get("metrics")
    if not isinstance(metrics, list):
        fail("metrics", "expected a list")
    names = set()
    for index, entry in enumerate(metrics):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            fail(f"metrics[{index}].name", "expected an object with a string name")
        names.add(entry["name"])
    if len(names) != len(metrics):
        fail("metrics", "metric names are not unique")
    for entry in metrics:
        _validate_metric(entry, names, where)


def _validate_metric(entry, names, where) -> None:
    def fail(field, message):
        raise BenchFileError(f"{where}: metric {entry['name']!r}: field {field!r}: {message}")

    for field in ("unit", "better"):
        if not isinstance(entry.get(field), str):
            fail(field, "missing or not a string")
    if entry["better"] not in BETTER:
        fail("better", f"expected one of {BETTER}, got {entry['better']!r}")
    samples = entry.get("samples")
    if not isinstance(samples, list) or not samples:
        fail("samples", "missing or empty; every metric records its samples")
    if not all(_is_number(s) or isinstance(s, bool) for s in samples):
        fail("samples", "expected numbers or booleans")
    inputs = entry.get("inputs", [])
    if not isinstance(inputs, list):
        fail("inputs", "expected a list of metric names")
    for name in inputs:
        if name not in names:
            fail("inputs", f"input metric {name!r} is missing from the file")
    gate = entry.get("gate")
    if gate is None:
        return
    if not isinstance(gate, dict):
        fail("gate", "expected an object")
    kinds = [key for key in gate if key != "min_cpus"]
    unknown = [key for key in kinds if key not in GATE_KINDS]
    if unknown:
        fail("gate", f"unknown gate kind {unknown[0]!r}; known: {', '.join(GATE_KINDS)}")
    if len(kinds) != 1:
        fail("gate", f"expected exactly one of {', '.join(GATE_KINDS)}")
    kind, bound = kinds[0], gate[kinds[0]]
    if kind == "equals":
        # 1 == True in Python: a verdict must have its bound's exact type.
        if not all(type(s) is type(bound) for s in samples):
            fail("samples", f"an equals gate needs samples of the bound's type "
                 f"({type(bound).__name__})")
    elif not _is_number(bound):
        fail(f"gate.{kind}", f"expected a number, got {bound!r}")
    elif not all(_is_number(s) for s in samples):
        fail("samples", f"a {kind} gate needs numeric samples")
    min_cpus = gate.get("min_cpus", 1)
    if not _is_count(min_cpus):
        fail("gate.min_cpus", f"expected a positive integer, got {min_cpus!r}")
