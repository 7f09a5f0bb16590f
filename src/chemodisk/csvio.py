"""CSV emission and ingestion for snapshots, traces, and audits.

All floating-point output uses 17 significant digits so files round-trip
to the exact binary values that produced them.

Float columns (snapshots, traces, the energy audit) go through one writer
that formats a block of rows at a time in NumPy and writes bytes equal to
``'%.17g' % x`` for every cell, with ``,`` between cells and CRLF line
ends.  It takes the 17-digit significand of |x| from an exact Dekker
product with 10^(16-k), k = floor(log10 |x|), kept as a double-double,
and trusts it only where that is certified: zero, or a significand of
exactly 17 digits whose rounding is either exact (10^(16-k) is a double)
or more than 1e-9 from a tie.  Every other cell (inf, nan, |x| outside
[1e-150, 1e150), near ties, a misjudged decade) is written by ``'%.17g'``
itself, which stays the reference.
"""

from __future__ import annotations

import csv
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import radial
from .radial import MassProfile
from .solver import SimulationTrace

SNAPSHOT_HEADER = ["xi", "M", "u", "v_r", "v"]
ENERGY_AUDIT_HEADER = ["t", "F", "D", "dFdt_est", "budget_residual"]

_BLOCK_ROWS = 256  # rows formatted per kernel call; bounds its temporaries
_FAST_MIN, _FAST_MAX = 1e-150, 1e150  # |x| range of the certified fast path
_TIE_MARGIN = 1e-9  # bound on the rounding error of an inexact product, in units
# decades k of the tables; log10 can misjudge k by one at the range's ends
_K_MIN, _K_MAX = -151, 150
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp split into 26- and 27-bit halves
# one cell's byte slots: sign, "0.000", 17 x (digit, point), "e+ddd" at
# _EXP, separator ("," or CRLF) at _SEP
_CELL, _EXP, _SEP = 47, 40, 45


class TraceFormatError(ValueError):
    """A trace CSV that `write_trace` did not write; names file and line."""


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _split(x):
    """Veltkamp: x = hi + lo exactly, each half with at most 26 bits."""
    hi = x * _SPLIT
    hi = hi - (hi - x)
    return hi, x - hi


def _layout(k: int, nsig: int) -> tuple[bytes, int, int]:
    """(prefix, digits shown, slot of the point or -1) of '%.17g' for a
    value of decade k whose 17-digit significand has nsig significant
    digits."""
    if k < -4 or k > 16:
        return b"", nsig, 0 if nsig > 1 else -1
    if k < 0:
        return b"0." + b"0" * (-k - 1), nsig, -1
    return b"", max(nsig, k + 1), k if nsig > k + 1 else -1


class _Tables(NamedTuple):
    """Lookup tables of the kernel; rows indexed by decade are for
    k = _K_MIN.._K_MAX."""

    hi_hi: np.ndarray  # Veltkamp halves of hi, where 10^(16-k) ~ hi + lo
    hi_lo: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    tie_limit: np.ndarray  # largest trusted |e - rint(e)|: 0.5 where lo = 0
    words: np.ndarray  # ASCII digits of 0..9999 as uint32 words
    # per 4-digit group j of the 16 digits after the leading one, and its
    # value: the digits after the leading one up to the group's last nonzero
    # digit (0 for a zero group)
    ends: np.ndarray
    layout_base: np.ndarray  # per decade: 18 x its layout class
    keep: np.ndarray  # per layout class x nsig: 255 on the digit slots shown
    fixed: np.ndarray  # per layout class x nsig: prefix and point bytes
    exponent: np.ndarray  # per decade: "e+dd[d]", empty where none is printed


@cache
def _tables() -> _Tables:
    """Build the tables at first use, with integer arithmetic: int / int is
    correctly rounded."""
    his, los = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den
        hn, hd = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hd - hn * den) / (den * hd))
    his, los = np.array(his), np.array(los)

    g = np.arange(10000, dtype=np.uint16)
    quads = np.empty((10000, 4), np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        quads[:, j] = g // unit % 10 + ord("0")
    last = np.max((quads != ord("0")) * np.arange(1, 5, dtype=np.int8), axis=1)
    ends = np.stack([np.where(last > 0, 4 * j + last, 0) for j in range(4)])

    # decades below -4 and above 16 share the layout classes of -5 and 17
    keep = np.zeros((23, 18, _CELL), np.uint8)
    fixed = np.zeros_like(keep)
    for k in range(-5, 18):
        for n in range(1, 18):
            prefix, shown, point = _layout(k, n)
            keep[k + 5, n, 6:6 + 2 * shown:2] = 255
            fixed[k + 5, n, 1:1 + len(prefix)] = np.frombuffer(prefix, np.uint8)
            if point >= 0:
                fixed[k + 5, n, 7 + 2 * point] = ord(".")
    decades = range(_K_MIN, _K_MAX + 1)
    exponent = np.zeros((len(decades), _SEP - _EXP), np.uint8)
    for i, k in enumerate(decades):
        if k < -4 or k > 16:
            text = b"e%+03d" % k
            exponent[i, :len(text)] = np.frombuffer(text, np.uint8)
    return _Tables(*_split(his), his, los, np.where(los == 0, 0.5, 0.5 - _TIE_MARGIN),
                   quads.view(np.uint32).ravel(),
                   ends, 18 * (np.clip(decades, -5, 17) + 5),
                   keep.reshape(-1, _CELL), fixed.reshape(-1, _CELL), exponent)


def _certified(a):
    """(sig, i, ok) for |x| = a: the 17-digit significand and the table
    index i = k - _K_MIN of the decade k, where they are certified to be
    those of ``'%.17g'``; elsewhere 0 and the index of k = 0."""
    tab = _tables()
    ok = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a = np.where(ok, a, 1.0)
    idx = (np.log10(a) - _K_MIN).astype(np.intp)  # floor: the operand is > 0
    # a*hi = p1 + e1 exactly (Dekker; no fused multiply-add in NumPy), and
    # e = e1 + a*lo.  p1 >= 2**53 is an even integer, so p1 + rint(e)
    # rounds half to even.
    p1 = a * tab.hi.take(idx)
    a_hi, a_lo = _split(a)
    b_hi, b_lo = tab.hi_hi.take(idx), tab.hi_lo.take(idx)
    e = (((a_hi * b_hi - p1) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
         + a * tab.lo.take(idx))
    r = np.rint(e)
    sig = p1.astype(np.int64) + r.astype(np.int64)
    # 17 digits in decade k: a*hi >= 10**16, since a guess of k one too high
    # can round a*hi up to 10**16, and sig < 10**17
    ok &= ((p1 - 1e16) + e >= 0) & (sig < 10 ** 17)
    ok &= np.abs(e - r) <= tab.tie_limit.take(idx)  # exact, or clear of a tie
    return np.where(ok, sig, 0), np.where(ok, idx, -_K_MIN), ok


def _format_block(block: np.ndarray) -> bytes:
    """CSV rows of a (rows, cols) float block, each cell as '%.17g'."""
    tab = _tables()
    x = block.ravel()
    sig, idx, ok = _certified(np.abs(x))
    # zeros print from sig = 0, k = 0 as "0" and "-0"
    fallback = np.flatnonzero(~ok & (x != 0))

    high, low = np.divmod(sig, 10 ** 8)
    lead, high = np.divmod(high, 10 ** 8)
    groups = np.stack(np.divmod(high, 10 ** 4) + np.divmod(low, 10 ** 4), axis=1)
    last = [tab.ends[j].take(groups[:, j]) for j in range(4)]
    nsig = 1 + np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3]))
    layout = tab.layout_base.take(idx) + nsig

    canvas = np.zeros((len(x), _CELL), np.uint8)
    canvas[:, 6] = lead + ord("0")
    canvas[:, 8:_EXP:2] = tab.words.take(groups).view(np.uint8).reshape(-1, 16)
    canvas &= tab.keep.take(layout, axis=0)
    canvas |= tab.fixed.take(layout, axis=0)
    canvas[:, _EXP:_SEP] = tab.exponent.take(idx, axis=0)
    canvas[:, 0] = np.signbit(x) * ord("-")
    for i in fallback:
        text = ("%.17g" % x[i]).encode()
        canvas[i, :_SEP] = 0
        canvas[i, :len(text)] = np.frombuffer(text, np.uint8)
    cells = canvas.reshape(block.shape[0], block.shape[1], _CELL)
    cells[:, :-1, _SEP] = ord(",")
    cells[:, -1, _SEP:] = tuple(b"\r\n")
    return canvas.tobytes().translate(None, b"\0")


def _write_columns(path, header, columns) -> None:
    """Float columns as CSV rows, byte for byte what csv.writer writes for
    [fmt(x) for x in row]: fmt cells, no quoting, CRLF line ends.  Rows are
    formatted _BLOCK_ROWS at a time."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            fh.write(_format_block(np.column_stack(
                [col[start:start + _BLOCK_ROWS] for col in columns])))


def write_snapshot(path, M: MassProfile) -> None:
    """Profile snapshot: one row per grid node, columns xi,M,u,v_r,v."""
    u = radial.density_from_mass(M)
    s = radial.potential_slope_from_mass(M)
    v = radial.potential_from_slope(s)
    _write_columns(path, SNAPSHOT_HEADER,
                   (M.grid.nodes, M.values, u.values, s.values, v.values))


def write_trace(path, trace: SimulationTrace) -> None:
    _write_columns(path, list(SimulationTrace.COLUMNS),
                   [getattr(trace, name) for name in SimulationTrace.COLUMNS.values()])


def write_energy_audit(path, columns) -> None:
    """Energy audit: one row per trace row, columns t,F,D,dFdt_est,budget_residual."""
    _write_columns(path, ENERGY_AUDIT_HEADER, columns)


def read_trace(path) -> dict[str, np.ndarray]:
    """The columns of a trace CSV by name.  Raises TraceFormatError, naming
    the file and line, for a header other than SimulationTrace.COLUMNS, a
    row whose cell count differs from it, a cell that is not a float, a t
    that does not increase, a last row without its line end (a file cut
    short, perhaps inside a number), or no row at all (write_trace writes
    at least the initial one)."""
    with open(path, newline="") as fh:
        text = fh.read()
    lines = text.splitlines()
    if text and not text.endswith("\n"):
        raise TraceFormatError(f"{path}:{len(lines)}: no line end; the file is cut short")
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != list(SimulationTrace.COLUMNS):
        raise TraceFormatError(f"{path}:1: unexpected trace header {header!r}")
    cols = [[] for _ in header]
    for row in reader:
        if len(row) != len(cols):
            raise TraceFormatError(f"{path}:{reader.line_num}: {len(row)} cells, "
                                   f"expected {len(cols)}")
        try:
            for col, cell in zip(cols, row):
                col.append(float(cell))
        except ValueError:
            raise TraceFormatError(f"{path}:{reader.line_num}: not a float: "
                                   f"{cell!r}") from None
        t = cols[0]
        if len(t) > 1 and not t[-1] > t[-2]:
            raise TraceFormatError(f"{path}:{reader.line_num}: t does not increase")
    if not cols[0]:
        raise TraceFormatError(f"{path}: no data rows under the header")
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
