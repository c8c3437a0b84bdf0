"""Plain-text persistence of the model database (paper Sect. III-C).

"As the amount of information was manageable using text files, we used
a plain-text file with comma-separated values (CSV) instead of an
actual database management system. ... we sorted (in the ascending
order) the registers of the database by a searching key, which is
composed of the parameters that indicate the number of VMs of each
workload type (Ncpu, Nmem, Nio)."

The auxiliary file stores "the number of VMs of optimal scenarios
(e.g., OSC, OSM, OSI) and reference execution times (e.g., TC, TM,
TI)" -- also a small CSV of (parameter, value) pairs.
"""

from __future__ import annotations

import csv
import os
from typing import Iterable

from repro.campaign.optimal import ClassOptima, OptimalScenarios
from repro.campaign.records import BenchmarkRecord
from repro.common.errors import TraceFormatError
from repro.testbed.benchmarks import WORKLOAD_CLASSES, WorkloadClass

#: Table II column order.
_HEADER = ["Ncpu", "Nmem", "Nio", "Time", "avgTimeVM", "Energy", "MaxPower", "EDP"]

#: Auxiliary-file parameter names, per class suffix C/M/I.
_AUX_SUFFIX = {
    WorkloadClass.CPU: "C",
    WorkloadClass.MEM: "M",
    WorkloadClass.IO: "I",
}


def write_records_csv(records: Iterable[BenchmarkRecord], path: str | os.PathLike) -> None:
    """Write records to a CSV file, sorted ascending by (Ncpu, Nmem, Nio).

    Sorting on write is what makes the O(log n) binary search of the
    reader valid; duplicate keys are rejected (the campaign runs each
    mix exactly once).
    """
    ordered = sorted(records)
    keys = [r.key for r in ordered]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate record keys: {dupes}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for record in ordered:
            writer.writerow(
                [
                    record.ncpu,
                    record.nmem,
                    record.nio,
                    f"{record.time_s:.6f}",
                    f"{record.avg_time_vm_s:.6f}",
                    f"{record.energy_j:.6f}",
                    f"{record.max_power_w:.6f}",
                    f"{record.edp:.6f}",
                ]
            )


def read_records_csv(path: str | os.PathLike) -> list[BenchmarkRecord]:
    """Read records from a CSV file written by :func:`write_records_csv`.

    Raises
    ------
    TraceFormatError
        On missing/odd headers, malformed rows, or an unsorted file
        (the binary-search invariant must hold for data read from
        disk, where an external editor may have scrambled it).
    """
    with open(path, encoding="utf-8", newline="") as handle:
        return _parse_records(handle, str(path))


def _parse_records(handle, source: str) -> list[BenchmarkRecord]:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError(f"{source}: empty database file") from None
    if header != _HEADER:
        raise TraceFormatError(
            f"{source}: unexpected header {header!r}, expected {_HEADER!r}"
        )
    records: list[BenchmarkRecord] = []
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(_HEADER):
            raise TraceFormatError(
                f"expected {len(_HEADER)} columns, got {len(row)}",
                line_number=line_number,
            )
        try:
            record = BenchmarkRecord(
                ncpu=int(row[0]),
                nmem=int(row[1]),
                nio=int(row[2]),
                time_s=float(row[3]),
                avg_time_vm_s=float(row[4]),
                energy_j=float(row[5]),
                max_power_w=float(row[6]),
                edp=float(row[7]),
            )
        except (ValueError, TypeError) as exc:
            raise TraceFormatError(str(exc), line_number=line_number) from exc
        if records and record.key <= records[-1].key:
            raise TraceFormatError(
                f"records not sorted ascending by key: {record.key} after {records[-1].key}",
                line_number=line_number,
            )
        records.append(record)
    return records


def write_auxiliary_file(optima: OptimalScenarios, path: str | os.PathLike) -> None:
    """Write the auxiliary parameter file: OSPx, OSEx, OSx, Tx per class."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Parameter", "Value"])
        for workload_class in WORKLOAD_CLASSES:
            suffix = _AUX_SUFFIX[workload_class]
            entry = optima.optima(workload_class)
            writer.writerow([f"OSP{suffix}", entry.osp])
            writer.writerow([f"OSE{suffix}", entry.ose])
            writer.writerow([f"OS{suffix}", entry.os_bound])
            writer.writerow([f"T{suffix}", f"{entry.t_single_s:.6f}"])


def read_auxiliary_file(path: str | os.PathLike) -> OptimalScenarios:
    """Read an auxiliary parameter file back into Table I form.

    The redundant ``OSx`` rows are checked against max(OSPx, OSEx);
    inconsistency is a format error (the file was edited by hand).
    """
    values: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty auxiliary file") from None
        if header != ["Parameter", "Value"]:
            raise TraceFormatError(f"{path}: unexpected header {header!r}")
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise TraceFormatError("expected 2 columns", line_number=line_number)
            values[row[0]] = row[1]

    per_class: dict[WorkloadClass, ClassOptima] = {}
    for workload_class in WORKLOAD_CLASSES:
        suffix = _AUX_SUFFIX[workload_class]
        try:
            osp = int(values[f"OSP{suffix}"])
            ose = int(values[f"OSE{suffix}"])
            os_bound = int(values[f"OS{suffix}"])
            t_single = float(values[f"T{suffix}"])
        except KeyError as exc:
            raise TraceFormatError(f"{path}: missing parameter {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise TraceFormatError(f"{path}: {exc}") from exc
        if os_bound != max(osp, ose):
            raise TraceFormatError(
                f"{path}: OS{suffix}={os_bound} inconsistent with "
                f"max(OSP{suffix}, OSE{suffix})={max(osp, ose)}"
            )
        per_class[workload_class] = ClassOptima(
            workload_class=workload_class,
            osp=osp,
            ose=ose,
            t_single_s=t_single,
        )
    return OptimalScenarios(per_class=per_class)
