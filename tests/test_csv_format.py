"""The float-column writer writes the bytes of ``'%.17g'``, cell for cell.

`reference_write_columns` is the row-by-row writer the NumPy kernel
replaced, kept here as the oracle: every test writes the same columns
through both and requires byte equality.  The cases aim at the kernel's
edges: decade boundaries, exact ties, the switch between fixed and
exponent notation, three-digit exponents, the ends of the fast path's
range, block boundaries, and the '%.17g' fallback itself.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chemodisk import cli, csvio, radial
from chemodisk.radial import EIGHT_PI, Grid, preset_profile


def reference_write_columns(path, header, columns) -> None:
    """Float columns as CSV rows, byte for byte what csv.writer writes for
    [fmt(x) for x in row]: fmt cells, no quoting, CRLF line ends."""
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % cells for cells in zip(*columns))


def assert_same_bytes(tmp_path, *columns):
    header = [f"c{j}" for j in range(len(columns))]
    csvio._write_columns(tmp_path / "kernel.csv", header, columns)
    reference_write_columns(tmp_path / "reference.csv", header, columns)
    assert ((tmp_path / "kernel.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def around(values, ulps=3):
    """Each value and its neighbours up to `ulps` units in the last place."""
    values = np.asarray(values, dtype=float)
    out = [values]
    up = down = values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def signed(values):
    return np.concatenate([values, -values])


finite_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array(b, np.uint64).view(np.float64))).filter(np.isfinite)


@given(st.lists(st.one_of(finite_bits,
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308])
def test_any_finite_double(tmp_path_factory, values):
    assert_same_bytes(tmp_path_factory.mktemp("cells"), values, values[::-1])


def test_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(0).integers(0, 2 ** 64, 60_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert_same_bytes(tmp_path, *values[:len(values) // 3 * 3].reshape(3, -1))


def test_inf_and_nan(tmp_path):
    assert_same_bytes(tmp_path, [np.inf, -np.inf, np.nan, 1.0],
                      [np.nan, 0.0, -np.inf, np.inf])


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_graded_nodes_with_exact_ties(tmp_path, gamma):
    # (i/n)**gamma has few significant bits; many nodes sit on exact
    # decimal ties at 17 digits, rounded half to even
    columns = [(np.arange(n + 1) / n) ** gamma for n in (1000, 1024, 4096)]
    assert_same_bytes(tmp_path, *(np.resize(col, 4097) for col in columns))


def test_decade_edges(tmp_path):
    powers = 10.0 ** np.arange(-323, 309)
    assert_same_bytes(tmp_path, signed(around(powers)))


def test_notation_switch(tmp_path):
    # '%g' prints 1e-05 but 0.0001, and 1e+17 but 9999999999999998
    edges = around([1e-5, 1e-4, 9.9999999999999995e-5, 1e16, 1e17,
                    9.9999999999999998e16, 9.999999999999999e15], ulps=5)
    scaled = np.concatenate([edges * f for f in (1.0, 1.5, 0.75, 9.99)])
    assert_same_bytes(tmp_path, signed(scaled))


def test_three_digit_exponents(tmp_path):
    assert_same_bytes(tmp_path, signed(around([1e100, 1e-100, 1.2345e123,
                                               1e-300, 3e-320])))


def test_fast_path_limits(tmp_path):
    limits = [csvio._FAST_MIN, csvio._FAST_MAX]
    assert_same_bytes(tmp_path, signed(around(limits + [1e-149, 1e149], ulps=10)))


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_block_boundaries(tmp_path, extra):
    rows = csvio._BLOCK_ROWS + extra
    rng = np.random.default_rng(rows)
    assert_same_bytes(tmp_path, rng.standard_normal(rows), np.arange(rows) / 7.0,
                      rng.random(rows) * 1e-7)


def test_ties_at_an_inexact_power_of_ten_fall_back(tmp_path):
    # j/2**24 and j/2**25 (j odd) are exact ties at 17 digits that need
    # 10**23 and 10**24, which are not doubles: the kernel must not trust
    # its product there, and '%.17g' writes them
    ties = np.concatenate([np.arange(3, 16, 2) / 2.0 ** 24,
                           np.array([1.0, 3.0]) / 2.0 ** 25])
    _, _, ok = csvio._certified(ties)
    assert not ok.any()
    assert_same_bytes(tmp_path, signed(ties))


@pytest.mark.parametrize("shift", [-1, 1])
def test_a_wrong_decade_guess_falls_back(tmp_path, monkeypatch, shift):
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    values = signed(around(10.0 ** np.arange(-100, 100) * 1.2345))
    _, _, ok = csvio._certified(np.abs(values))
    assert not ok.any()
    assert_same_bytes(tmp_path, values)


def test_fallback_writes_the_same_bytes(tmp_path, monkeypatch):
    # an empty fast-path range certifies no cell: all go through '%.17g'
    monkeypatch.setattr(csvio, "_FAST_MIN", np.inf)
    rng = np.random.default_rng(1)
    assert_same_bytes(tmp_path, signed(around([1.0, 0.1, 1e-5, 1e17, 123.456])),
                      rng.standard_normal(70), rng.random(70) * 1e300)


def test_snapshot_cells_take_the_fast_path():
    # a snapshot's cells, graded nodes and their exact ties included, are
    # all certified: the '%.17g' fallback is for rare values only
    grid = Grid.regular(1024, 2.0)
    M = preset_profile("pks", EIGHT_PI, grid, lam=0.3)
    s = radial.potential_slope_from_mass(M)
    table = np.column_stack([grid.nodes, M.values, radial.density_from_mass(M).values,
                             s.values, radial.potential_from_slope(s).values])
    _, _, ok = csvio._certified(np.abs(table.ravel()))
    assert (ok | (table.ravel() == 0)).all()


def test_energy_audit_file_is_unchanged(tmp_path):
    # the audit was written by write_rows (csv.writer over fmt cells); the
    # column writer must give the same bytes
    run = tmp_path / "run"
    assert cli.main(["simulate", "--set", "mass=4pi", "--set", "grid.n=64",
                     "--set", "scheme.t_end=0.5", "--out", str(run)]) == 0
    assert cli.main(["energy-audit", str(run)]) == 0
    data = csvio.read_trace(run / "trace.csv")
    t, F, D = data["t"], data["energy"], data["dissipation"]
    dfdt = np.gradient(F, t, edge_order=1)
    residual = np.abs((F[0] - F) - radial.cumulative_trapezoid(D, t))
    csvio.write_rows(tmp_path / "reference.csv",
                     ["t", "F", "D", "dFdt_est", "budget_residual"],
                     list(zip(t, F, D, dfdt, residual)))
    assert ((run / "energy_audit.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
