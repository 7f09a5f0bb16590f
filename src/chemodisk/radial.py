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
    """A field or profile violates one of its structural invariants."""


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


class FirstDerivative:
    """Three-point first-derivative weights on nonuniform nodes x.

    Centered weights (lo, mid, hi) at interior nodes and one-sided triples
    at the endpoints, nearest node first; exact on quadratics.
    """

    def __init__(self, x: np.ndarray):
        hm, hp = _spacings(x)
        self.lo = -hp / (hm * (hm + hp))
        self.mid = (hp - hm) / (hm * hp)
        self.hi = hm / (hp * (hm + hp))
        h0, h1 = x[1] - x[0], x[2] - x[1]
        self.left = (-(2 * h0 + h1) / (h0 * (h0 + h1)), (h0 + h1) / (h0 * h1),
                     -h0 / (h1 * (h0 + h1)))
        hN, hM = x[-1] - x[-2], x[-2] - x[-3]
        self.right = ((2 * hN + hM) / (hN * (hN + hM)), -(hN + hM) / (hN * hM),
                      hN / (hM * (hN + hM)))
        for a in (self.lo, self.mid, self.hi):
            a.setflags(write=False)  # shared by every user of a cached Grid.stencil

    def __call__(self, f: np.ndarray) -> np.ndarray:
        left, right = self.left, self.right
        out = np.empty_like(f)
        out[1:-1] = self.lo * f[:-2] + self.mid * f[1:-1] + self.hi * f[2:]
        out[0] = left[0] * f[0] + left[1] * f[1] + left[2] * f[2]
        out[-1] = right[0] * f[-1] + right[1] * f[-2] + right[2] * f[-3]
        return out


class Stencil:
    """The three-point operators of one grid; built once per grid as Grid.stencil.

    d1_xi, d1_r: first derivatives in xi and in r = sqrt(xi).
    d2: interior second-derivative weights (lo, mid, hi) in xi, for matrix
    assembly.  hm, hp: cell widths left and right of each interior node.
    w_xi: trapezoid node weights for int . dxi over the grid.
    """

    def __init__(self, xi: np.ndarray, r: np.ndarray):
        self.hm, self.hp = hm, hp = _spacings(xi)
        denom = hm * hp * (hm + hp)
        self.d2 = (2.0 * hp / denom, -2.0 * (hm + hp) / denom, 2.0 * hm / denom)
        self.d1_xi = FirstDerivative(xi)
        self.d1_r = FirstDerivative(r)
        dxi = np.diff(xi)
        self.w_xi = 0.5 * np.concatenate(([dxi[0]], dxi[:-1] + dxi[1:], [dxi[-1]]))
        for a in (hm, hp, *self.d2, self.w_xi):
            a.setflags(write=False)


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

    def weights(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(wl, wr) for the advection speeds c at the interior nodes."""
        # c = 0 would make B(0) = 0/0; the shift is exact for |c| > 1e-284
        c = c + 1e-300
        x = c * self._neg_kp
        y = c * self._km
        lam = c * self._neg_inv_a
        with np.errstate(over="ignore"):
            bx = x / np.expm1(x)  # expm1 = inf past x ~ 709 gives B(x) = 0
            by = y / np.expm1(y)
        series = self._hbar + lam * (self._e2 - lam * lam * self._e4)
        H = np.where(np.abs(c) < self._c_series, series, (by - bx) / lam)
        return self._am * by / H, self._ap * bx / H


def derivative(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Second-order first derivative on a nonuniform grid (see FirstDerivative)."""
    return FirstDerivative(np.asarray(x, dtype=float))(np.asarray(values, dtype=float))


def second_derivative_interior(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Three-point second derivative at interior nodes (exact on quadratics).

    Applied in factored form, which rounds differently from the coefficient
    arrays of Stencil.d2 used for matrix assembly.
    """
    values = np.asarray(values, dtype=float)
    hm, hp = _spacings(np.asarray(x, dtype=float))
    return 2.0 * (hp * values[:-2] - (hm + hp) * values[1:-1] + hm * values[2:]) \
        / (hm * hp * (hm + hp))


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


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(np.asarray(y, dtype=float))
    out[0] = 0.0
    np.cumsum(0.5 * np.diff(x) * (y[1:] + y[:-1]), out=out[1:])
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
        if not (np.isfinite(m) and np.all(np.isfinite(values))):
            raise ProfileError("profile values and total mass must be finite")
        tol = _MONO_TOL * m
        if abs(values[0]) > tol:
            raise ProfileError(f"M(0) = {values[0]!r}, expected 0")
        if abs(values[-1] - m) > tol:
            raise ProfileError(f"M(1) = {values[-1]!r}, expected m = {m!r}")
        if np.any(np.diff(values) < -tol):
            i = int(np.argmin(np.diff(values)))
            raise ProfileError(f"profile decreases across cell {i}")
        if values.min() < -tol or values.max() > m + tol:
            raise ProfileError("profile escapes [0, m]")
        values = values.copy()
        values[0] = 0.0
        values[-1] = m
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "total_mass", m)

    @property
    def xi(self) -> np.ndarray:
        return self.grid.nodes


@dataclass(frozen=True)
class RadialField:
    """Scalar samples over r in [0, 1] (density or potential)."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if radii.shape != values.shape:
            raise ProfileError("radii/values shape mismatch")
        if not np.all(np.isfinite(values)):
            raise ProfileError("field values must be finite")
        radii.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def mass_from_density(u: RadialField, grid: Grid) -> MassProfile:
    """Cumulative mass M(xi) = pi * int_0^xi u(sqrt(s)) ds by trapezoid."""
    if np.any(u.values < 0):
        raise ProfileError("density must be nonnegative")
    if u.radii.shape != grid.radii.shape or not np.allclose(
            u.radii, grid.radii, rtol=0.0, atol=1e-12):
        raise ProfileError("density field must be sampled on the grid radii")
    integrand = np.pi * u.values
    values = cumulative_trapezoid(integrand, grid.nodes)
    m = float(values[-1])
    return MassProfile(grid, values, m)


def density_from_mass(M: MassProfile) -> RadialField:
    """u(sqrt(xi)) = M_xi / pi, with derivative noise clamped at zero."""
    u = derivative(M.values, M.grid.nodes) / np.pi
    u[u < 0] = 0.0
    return RadialField(M.grid.radii, u)


def potential_slope_from_mass(M: MassProfile) -> RadialField:
    """v_r(sqrt(xi)) = -(M - m*xi) / (2*pi*sqrt(xi)); limit 0 at r = 0."""
    xi = M.grid.nodes
    m = M.total_mass
    s = np.zeros_like(xi)
    s[1:] = -(M.values[1:] - m * xi[1:]) / (2.0 * np.pi * np.sqrt(xi[1:]))
    return RadialField(M.grid.radii, s)


def potential_from_slope(s: RadialField) -> RadialField:
    """Integrate v_r in r and shift so the disk average of v vanishes."""
    v = cumulative_trapezoid(s.values, s.radii)
    # disk average: (2*pi int v r dr) / pi = int v(sqrt(xi)) dxi
    xi = s.radii ** 2
    avg = _trapezoid_value(v, xi)
    return RadialField(s.radii, v - avg)


def second_moment(M: MassProfile) -> float:
    """2*pi * int u r^3 dr, evaluated as m - int_0^1 M dxi."""
    return M.total_mass - _trapezoid_value(M.values, M.grid.nodes)


def preset_profile(kind: str, m: float, grid: Grid, **params) -> MassProfile:
    """Closed-form initial profiles, rescaled to total mass m.

    kinds: "constant" (M = m*xi), "pks" (stationary planar profile with
    scale lam, restricted to the disk and renormalized) and "barrier"
    (the concave family with parameter a; small a is the concentrated,
    near-Dirac preset).
    """
    if m <= 0:
        raise ProfileError("total mass must be positive")
    xi = grid.nodes
    if kind == "constant":
        if params:
            raise ProfileError(f"constant preset takes no parameters, got {params}")
        values = m * xi
    elif kind == "pks":
        lam = params.pop("lam", None)
        if params:
            raise ProfileError(f"unknown pks parameters {params}")
        if lam is None or lam <= 0:
            raise ProfileError("pks preset needs lam > 0")
        # unscaled mass inside xi is 8*pi*xi/(lam^2 + xi); rescale to m
        values = m * (lam ** 2 + 1.0) * xi / (lam ** 2 + xi)
    elif kind == "barrier":
        a = params.pop("a", None)
        if params:
            raise ProfileError(f"unknown barrier parameters {params}")
        if a is None or a <= 0:
            raise ProfileError("barrier preset needs a > 0")
        values = m * (a + 1.0) * xi / (a + xi)
    else:
        raise ProfileError(f"unknown preset kind {kind!r}")
    return MassProfile(grid, values, m)
