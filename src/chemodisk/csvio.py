"""CSV emission and ingestion for snapshots, traces, and audits.

All floating-point output uses 17 significant digits so files round-trip
to the exact binary values that produced them.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from . import radial
from .radial import MassProfile

SNAPSHOT_HEADER = ["xi", "M", "u", "v_r", "v"]
TRACE_HEADER = ["t", "dt", "sup_u", "sup_M_over_xi", "energy", "dissipation",
                "second_moment"]


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_columns(path, header, columns) -> None:
    """Float columns as CSV rows, byte for byte what csv.writer writes for
    [fmt(x) for x in row]: fmt cells, no quoting, CRLF line ends."""
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % cells for cells in zip(*columns))


def write_snapshot(path, M: MassProfile) -> None:
    """Profile snapshot: one row per grid node, columns xi,M,u,v_r,v."""
    u = radial.density_from_mass(M)
    s = radial.potential_slope_from_mass(M)
    v = radial.potential_from_slope(s)
    _write_columns(path, SNAPSHOT_HEADER,
                   (M.grid.nodes, M.values, u.values, s.values, v.values))


def write_trace(path, trace) -> None:
    _write_columns(path, TRACE_HEADER,
                   (trace.times, trace.dts, trace.sup_u, trace.sup_m_over_xi,
                    trace.energy, trace.dissipation, trace.second_moment))


def read_trace(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        cols = [[] for _ in header]
        for row in reader:
            for col, cell in zip(cols, row):
                col.append(float(cell))
    return {name: np.asarray(col) for name, col in zip(header, cols)}


def _cell(value) -> str:
    """One CSV or summary cell: floats at 17 digits, None empty, anything
    else as str."""
    if isinstance(value, float):
        return fmt(value)
    return "" if value is None else str(value)


def write_rows(path, header, rows) -> None:
    """Generic CSV with 17-digit floats; strings pass through unchanged."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(cell) for cell in row])


def write_summary(path, entries: dict) -> None:
    """Plain key=value summary file with deterministic ordering."""
    lines = [f"{key}={_cell(value)}" for key, value in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")
