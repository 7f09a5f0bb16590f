"""Radial grids, the mass-distribution transform, and field reconstruction.

Everything lives in the mass variable xi = r^2 on [0, 1].  The cumulative
mass M(xi) = 2*pi * int_0^sqrt(xi) u(r) r dr is the central state object;
density and chemical-potential slope are recovered from it by
differentiation and the integrated elliptic balance
-2*pi*v_r(sqrt(xi))*sqrt(xi) = M(xi) - m*xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

EIGHT_PI = 8.0 * np.pi

# Relative slack allowed when validating monotonicity / bounds of a profile.
_MONO_TOL = 1e-9


class ProfileError(ValueError):
    """A field or profile violates one of its structural invariants.

    param names the preset_profile argument at fault, if one is.
    """

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


# ---------------------------------------------------------------------------
# grids and finite-difference stencils
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Strictly increasing xi-nodes on [0, 1], optionally graded toward 0."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 17:
            raise ProfileError("grid needs at least 17 nodes (N >= 16)")
        if not np.all(np.isfinite(nodes)):
            raise ProfileError("grid nodes must be finite")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ProfileError("grid must span [0, 1] exactly")
        if np.any(np.diff(nodes) <= 0):
            raise ProfileError("grid nodes must be strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def regular(cls, n: int, gamma: float = 1.0) -> "Grid":
        """N+1 nodes xi_i = (i/N)^gamma; gamma > 1 concentrates resolution at 0."""
        if n < 16:
            raise ProfileError("N >= 16 required")
        if gamma < 1.0:
            raise ProfileError("grading exponent gamma must be >= 1")
        nodes = (np.arange(n + 1) / n) ** gamma
        nodes[0] = 0.0
        nodes[-1] = 1.0
        return cls(nodes)

    @property
    def n(self) -> int:
        return self.nodes.size - 1

    @property
    def radii(self) -> np.ndarray:
        return np.sqrt(self.nodes)

    @cached_property
    def stencil(self) -> "Stencil":
        return Stencil(self.nodes, self.radii)

    def __eq__(self, other):
        return isinstance(other, Grid) and np.array_equal(self.nodes, other.nodes)


def _spacings(x):
    """Left and right cell widths (hm, hp) at the interior nodes of x."""
    return x[1:-1] - x[:-2], x[2:] - x[1:-1]


def _d2_weights(hm, hp):
    """Second-derivative weights (lo, mid, hi) at nodes with cell widths
    hm, hp on either side; exact on quadratics."""
    denom = hm * hp * (hm + hp)
    return 2.0 * hp / denom, -2.0 * (hm + hp) / denom, 2.0 * hm / denom


def _apply3(lo, mid, hi, f, out=None, tmp=None):
    """Three-point weights (lo, mid, hi) applied at the interior nodes of f:
    lo f[:-2] + mid f[1:-1] + hi f[2:], summed in that order.  out and tmp,
    arrays of the interior's size, receive the result and the products;
    new arrays if None."""
    out = np.multiply(lo, f[:-2], out=out)
    tmp = np.multiply(mid, f[1:-1], out=tmp)
    out += tmp
    out += np.multiply(hi, f[2:], out=tmp)
    return out


class FirstDerivative:
    """Three-point first-derivative weights on nonuniform nodes x.

    Centered weights (lo, mid, hi) at interior nodes and one-sided triples
    at the endpoints, nearest node first, as Python floats; exact on
    quadratics.
    """

    def __init__(self, x: np.ndarray):
        hm, hp = _spacings(x)
        self.lo = -hp / (hm * (hm + hp))
        self.mid = (hp - hm) / (hm * hp)
        self.hi = hm / (hp * (hm + hp))
        h0, h1 = float(x[1] - x[0]), float(x[2] - x[1])
        self.left = (-(2 * h0 + h1) / (h0 * (h0 + h1)), (h0 + h1) / (h0 * h1),
                     -h0 / (h1 * (h0 + h1)))
        hN, hM = float(x[-1] - x[-2]), float(x[-2] - x[-3])
        self.right = ((2 * hN + hM) / (hN * (hN + hM)), -(hN + hM) / (hN * hM),
                      hN / (hM * (hN + hM)))
        for a in (self.lo, self.mid, self.hi):
            a.setflags(write=False)  # shared by every user of a cached Grid.stencil

    def interior(self, f: np.ndarray) -> np.ndarray:
        """The derivative at the interior nodes only."""
        return _apply3(self.lo, self.mid, self.hi, f)

    def __call__(self, f: np.ndarray, out=None, tmp=None) -> np.ndarray:
        """The derivative at every node, into out (shaped like f) if given;
        tmp is _apply3's scratch."""
        out = np.empty_like(f) if out is None else out
        _apply3(self.lo, self.mid, self.hi, f, out[1:-1], tmp)
        # the boundary rows on Python floats: the same IEEE operations as on
        # NumPy scalars, without their per-operation overhead
        (l0, l1, l2), (r0, r1, r2) = self.left, self.right
        f0, f1, f2 = f[:3].tolist()
        out[0] = l0 * f0 + l1 * f1 + l2 * f2
        f0, f1, f2 = f[:-4:-1].tolist()
        out[-1] = r0 * f0 + r1 * f1 + r2 * f2
        return out


class Stencil:
    """The three-point operators of one grid; built once per grid as Grid.stencil.

    d1_xi, d1_r: first derivatives in xi and in r = sqrt(xi).
    d2: interior second-derivative weights (lo, mid, hi) in xi;
    d2_interior applies them.
    hm, hp: cell widths left and right of each interior node.
    w_xi: trapezoid node weights for int . dxi over the grid.
    """

    def __init__(self, xi: np.ndarray, r: np.ndarray):
        self.hm, self.hp = hm, hp = _spacings(xi)
        self.d2 = _d2_weights(hm, hp)
        self.d1_xi = FirstDerivative(xi)
        self.d1_r = FirstDerivative(r)
        dxi = np.diff(xi)
        self.w_xi = 0.5 * np.concatenate(([dxi[0]], dxi[:-1] + dxi[1:], [dxi[-1]]))
        for a in (hm, hp, *self.d2, self.w_xi):
            a.setflags(write=False)

    def d2_interior(self, f: np.ndarray) -> np.ndarray:
        """second_derivative_interior of f on this grid."""
        return _apply3(*self.d2, f)


class FittedOperator:
    """Exponentially fitted three-point weights of a f'' + c f' (Il'in /
    Scharfetter-Gummel) at the interior nodes of a grid, for fixed a > 0.

    With lam = -c/a, x = lam*hp and y = -lam*hm, the weights of
    (W f)_i = wl (f_{i-1} - f_i) + wr (f_{i+1} - f_i) are

        wl = a B(y) / (hm H),   wr = a B(x) / (hp H),   H = (B(y) - B(x)) / lam,

    with the Bernoulli function B(z) = z / expm1(z) > 0.  They are the
    unique three-point weights exact on 1, xi and exp(lam xi); they are
    nonnegative for every c (the downwind one decays like Pe exp(-Pe) in the
    Peclet number Pe = |c| h / a and underflows to 0 only past Pe ~ 700),
    equal a times the central D2 weights at c = 0, and tend to upwinding,
    wr -> c/hp for c > 0 and wl -> -c/hm for c < 0, as Pe grows.  As c
    increases wl falls and wr rises.  H is evaluated by its Taylor series
    where |lam| max(hm, hp) < 1e-2, where the difference quotient cancels.
    """

    _SERIES = 1e-2

    def __init__(self, st: Stencil, a: np.ndarray):
        hm, hp = st.hm, st.hp
        self._neg_kp = -hp / a  # x = c * (-hp/a)
        self._km = hm / a  # y = c * hm/a
        self._neg_inv_a = -1.0 / a  # lam = c * (-1/a)
        self._am = a / hm
        self._ap = a / hp
        self._c_series = self._SERIES * a / np.maximum(hm, hp)
        self._hbar = 0.5 * (hm + hp)
        self._e2 = (hm ** 2 - hp ** 2) / 12.0
        self._e4 = (hm ** 4 - hp ** 4) / 720.0
        # the intermediates of weights, private to this operator
        self._scratch = tuple(np.empty_like(self._hbar) for _ in range(6))
        self._use_series = np.empty(self._hbar.shape, dtype=bool)

    def weights(self, c: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(wl, wr) for the advection speeds c at the interior nodes, written
        into the pair of arrays out if given, else into new arrays."""
        wl, wr = out if out is not None else (np.empty_like(self._hbar),
                                              np.empty_like(self._hbar))
        shifted, x, y, lam, bx, by = self._scratch
        # c = 0 would make B(0) = 0/0; the shift is exact for |c| > 1e-284
        c = np.add(c, 1e-300, out=shifted)
        np.multiply(c, self._neg_kp, out=x)
        np.multiply(c, self._km, out=y)
        np.multiply(c, self._neg_inv_a, out=lam)
        with np.errstate(over="ignore"):
            # expm1 = inf past x ~ 709 gives B(x) = 0
            np.divide(x, np.expm1(x, out=bx), out=bx)
            np.divide(y, np.expm1(y, out=by), out=by)
        # H = (B(y) - B(x)) / lam, and where |c| < c_series its series
        # hbar + lam (e2 - lam lam e4); wl and wr hold H and the series
        H = np.subtract(by, bx, out=wr)
        H /= lam
        series = np.multiply(lam, lam, out=wl)
        series *= self._e4
        np.subtract(self._e2, series, out=series)
        series *= lam
        series += self._hbar
        np.copyto(H, series, where=np.less(np.abs(c, out=x), self._c_series,
                                           out=self._use_series))
        np.multiply(self._am, by, out=wl)
        wl /= H
        np.multiply(self._ap, bx, out=x)
        np.divide(x, H, out=wr)
        return wl, wr


def derivative(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Second-order first derivative on a nonuniform grid (see FirstDerivative)."""
    return FirstDerivative(np.asarray(x, dtype=float))(np.asarray(values, dtype=float))


def second_derivative_interior(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Three-point second derivative at interior nodes (exact on quadratics)."""
    weights = _d2_weights(*_spacings(np.asarray(x, dtype=float)))
    return _apply3(*weights, np.asarray(values, dtype=float))


def _trapezoid_value(y: np.ndarray, x: np.ndarray) -> float:
    """Composite trapezoid value of 1-D samples, from 2 nodes up.

    Same expression and operation order as ``scipy.integrate.trapezoid``,
    so the two agree bit for bit.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def trapezoid(y: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Composite trapezoid value plus a truncation-error estimate.

    The estimate is sum_cells h^3 |f''| / 12 with f'' from the interior
    three-point stencil (nearest interior node for the boundary cells), so
    it needs at least 3 nodes.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        raise ProfileError(
            f"trapezoid error estimate needs at least 3 nodes, got {x.size}")
    value = _trapezoid_value(y, x)
    h = np.diff(x)
    d2 = np.abs(second_derivative_interior(y, x))
    # cell i sits between nodes i and i+1; use the larger adjacent curvature
    cell_d2 = np.empty_like(h)
    cell_d2[0] = d2[0]
    cell_d2[-1] = d2[-1]
    if h.size > 2:
        cell_d2[1:-1] = np.maximum(d2[:-1], d2[1:])
    est = float(np.sum(h ** 3 * cell_d2) / 12.0)
    return value, est


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray, out=None,
                         half_dx=None) -> np.ndarray:
    """Trapezoid integrals of y from x[0] to each node of x: the running sum
    of 0.5 diff(x) (y[1:] + y[:-1]), that factor first.  half_dx, if given,
    is 0.5 * np.diff(x) computed once; out (not y) receives the result."""
    if half_dx is None:
        half_dx = 0.5 * np.diff(x)
    out = np.empty_like(np.asarray(y, dtype=float)) if out is None else out
    out[0] = 0.0
    cells = np.add(y[1:], y[:-1], out=out[1:])
    cells *= half_dx
    np.add.accumulate(cells, out=cells)
    return out


# ---------------------------------------------------------------------------
# state objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassProfile:
    """Cumulative mass M over a grid with total mass m.

    Invariants: M(0) = 0, M(1) = m, M nondecreasing, 0 <= M <= m (up to a
    small relative slack for solver roundoff).
    """

    grid: Grid
    values: np.ndarray
    total_mass: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        m = float(self.total_mass)
        if m <= 0:
            raise ProfileError("total mass must be positive")
        if values.shape != self.grid.nodes.shape:
            raise ProfileError("profile values must match the grid")
        _check_mass_rows(values, m)
        values = values.copy()
        values[0] = 0.0
        values[-1] = m
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "total_mass", m)


def _check_mass_rows(values: np.ndarray, m: float) -> None:
    """Check MassProfile's value invariants on every row of values.

    values holds one profile of total mass m (a float) per row, nodes on
    the last axis.  The first row that breaks an invariant raises
    ProfileError, naming the first one it breaks: finite values and m,
    M(0) = 0, M(1) = m, M nondecreasing, 0 <= M <= m, each up to
    _MONO_TOL * m.
    """
    tol = _MONO_TOL * m
    lo, hi = values.min(axis=-1), values.max(axis=-1)  # NaN where a value is
    with np.errstate(invalid="ignore"):  # inf - inf in a row that fails anyway
        drop = np.diff(values, axis=-1).min(axis=-1)
    faults = (~(np.isfinite(lo) & np.isfinite(hi) & np.isfinite(m)),
              np.abs(values[..., 0]) > tol,
              np.abs(values[..., -1] - m) > tol,
              drop < -tol,
              (lo < -tol) | (hi > m + tol))
    bad = np.ravel(faults[0] | faults[1] | faults[2] | faults[3] | faults[4])
    if not bad.any():
        return
    row = int(np.argmax(bad))
    v = values.reshape(-1, values.shape[-1])[row]
    first = next(j for j, f in enumerate(faults) if np.ravel(f)[row])
    with np.errstate(invalid="ignore"):
        messages = ("profile values and total mass must be finite",
                    f"M(0) = {v[0]!r}, expected 0",
                    f"M(1) = {v[-1]!r}, expected m = {m!r}",
                    f"profile decreases across cell {int(np.argmin(np.diff(v)))}",
                    "profile escapes [0, m]")
    raise ProfileError(messages[first])


def _monotone(values: np.ndarray, m: float) -> np.ndarray:
    """Cumulative maximum clipped to [0, m], ends pinned: an order-preserving map."""
    out = np.maximum.accumulate(values)
    np.clip(out, 0.0, m, out=out)
    out[0], out[-1] = 0.0, m
    return out


@dataclass(frozen=True)
class RadialField:
    """Density or potential samples at the radii r = sqrt(xi) of its grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ProfileError("field values must match the grid")
        if not np.all(np.isfinite(values)):
            raise ProfileError("field values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def radii(self) -> np.ndarray:
        return self.grid.radii


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def mass_from_density(u: RadialField) -> MassProfile:
    """Cumulative mass M(xi) = pi * int_0^xi u(sqrt(s)) ds by trapezoid, on u's grid."""
    if np.any(u.values < 0):
        raise ProfileError("density must be nonnegative")
    values = cumulative_trapezoid(np.pi * u.values, u.grid.nodes)
    return MassProfile(u.grid, values, float(values[-1]))


def density_from_mass(M: MassProfile) -> RadialField:
    """u(sqrt(xi)) = M_xi / pi, with derivative noise clamped at zero."""
    u = derivative(M.values, M.grid.nodes) / np.pi
    u[u < 0] = 0.0
    return RadialField(M.grid, u)


def potential_slope_from_mass(M: MassProfile) -> RadialField:
    """v_r(sqrt(xi)) = -(M - m*xi) / (2*pi*sqrt(xi)); limit 0 at r = 0."""
    xi = M.grid.nodes
    m = M.total_mass
    s = np.zeros_like(xi)
    s[1:] = -(M.values[1:] - m * xi[1:]) / (2.0 * np.pi * np.sqrt(xi[1:]))
    return RadialField(M.grid, s)


def potential_from_slope(s: RadialField) -> RadialField:
    """Integrate v_r in r and shift so the disk average of v vanishes."""
    v = cumulative_trapezoid(s.values, s.radii)
    # disk average (2*pi int v r dr) / pi = int v(sqrt(xi)) dxi, over r**2 and not the
    # grid's nodes: test_callers_match_scipy_reference_bitwise and snapshots pin its bits
    avg = _trapezoid_value(v, s.radii ** 2)
    return RadialField(s.grid, v - avg)


def second_moment(M: MassProfile) -> float:
    """2*pi * int u r^3 dr, evaluated as m - int_0^1 M dxi."""
    return M.total_mass - _trapezoid_value(M.values, M.grid.nodes)


def preset_profile(kind: str, m: float, grid: Grid, **params) -> MassProfile:
    """Closed-form initial profiles, rescaled to total mass m.

    kinds: "constant" (M = m*xi), "barrier" (the concave family
    m(a+1)xi/(a+xi); small a is the concentrated, near-Dirac preset) and
    "pks" (the stationary planar profile with scale lam, restricted to the
    disk and renormalized: the barrier family at a = lam^2).  This is the
    one check of initial data: a bad kind or parameter raises here, and a
    closed form that overflows or divides 0 by 0 comes out non-finite,
    which MassProfile rejects.
    """
    from .barriers import SuperBarrier  # barriers imports this module

    xi = grid.nodes
    with np.errstate(all="ignore"):
        if kind == "constant":
            if params:
                raise ProfileError(f"constant preset takes no parameters, got {params}",
                                   next(iter(params)))
            values = m * xi
        elif kind in ("pks", "barrier"):
            key = "lam" if kind == "pks" else "a"
            a = params.pop(key, None)
            if params:
                raise ProfileError(f"unknown {kind} parameters {params}",
                                   next(iter(params)))
            if a is None or a <= 0:
                raise ProfileError(f"{kind} preset needs {key} > 0", key)
            if kind == "pks":
                # a NumPy square overflows to inf where a float's raises
                a = np.float64(a) ** 2
            values = SuperBarrier.closed_form(a, m, xi)
        else:
            raise ProfileError(f"unknown preset kind {kind!r}", "kind")
    return MassProfile(grid, values, m)
