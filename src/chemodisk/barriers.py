"""Stationary operator, closed-form barrier families, and envelope fits.

The stationary operator acting on a cumulative-mass profile W is

    Q W = -4 xi W'' - W W' / pi + m xi W' / pi.

The concave family m(a+1)xi/(a+xi) has Q > 0 on (0,1) for every a > 0
whenever m <= 8*pi; the convex family m*b*xi/(b+1-xi) has Q < 0.  Both
collapse onto the linear profile m*xi as the parameter grows, which is
what makes them usable as a two-sided vise around stationary profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radial import Grid, MassProfile


class DerivativeBoundError(ValueError):
    """The derivative bound C admits no envelope fit: C <= m, C so large that
    the envelope margin leaves no room below a chord, or the discrete
    derivative of the profile escapes the (1/C, C) window."""


class DominationError(ValueError):
    """A constructed barrier fails nodewise ordering against its target."""

    def __init__(self, node: int, gap: float):
        self.node = node
        self.gap = gap
        super().__init__(f"ordering fails at node {node} by {gap:.6g}")


@dataclass(frozen=True)
class SuperBarrier:
    """Concave family m(a+1)xi/(a+xi); supersolution of the stationary problem."""

    a: float
    m: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("family parameter a must be positive")
        if self.m <= 0:
            raise ValueError("mass must be positive")

    @staticmethod
    def closed_form(a, m, xi):
        """m(a+1)xi/(a+xi), broadcast over a, m and xi."""
        return m * (a + 1.0) * xi / (a + xi)

    def value(self, xi):
        return self.closed_form(self.a, self.m, xi)

    def slope(self, xi):
        return self.m * (self.a + 1.0) * self.a / (self.a + xi) ** 2

    def curvature(self, xi):
        return -2.0 * self.m * (self.a + 1.0) * self.a / (self.a + xi) ** 3

    def drift(self, xi):
        """m*xi - value(xi) without the cancellation of the naive difference."""
        return -self.m * xi * (1.0 - xi) / (self.a + xi)

    def profile(self, grid: Grid) -> MassProfile:
        return MassProfile(grid, self.value(grid.nodes), self.m)


@dataclass(frozen=True)
class SubBarrier:
    """Convex family m*b*xi/(b+1-xi); subsolution of the stationary problem."""

    b: float
    m: float

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("family parameter b must be positive")
        if self.m <= 0:
            raise ValueError("mass must be positive")

    @staticmethod
    def closed_form(b, m, xi):
        """m*b*xi/(b+1-xi), broadcast over b, m and xi."""
        return m * b * xi / (b + 1.0 - xi)

    def value(self, xi):
        return self.closed_form(self.b, self.m, xi)

    def slope(self, xi):
        return self.m * (self.b + 1.0) * self.b / (self.b + 1.0 - xi) ** 2

    def curvature(self, xi):
        return 2.0 * self.m * (self.b + 1.0) * self.b / (self.b + 1.0 - xi) ** 3

    def drift(self, xi):
        """m*xi - value(xi) without the cancellation of the naive difference."""
        return self.m * xi * (1.0 - xi) / (self.b + 1.0 - xi)

    def profile(self, grid: Grid) -> MassProfile:
        return MassProfile(grid, self.value(grid.nodes), self.m)


# ---------------------------------------------------------------------------
# operator evaluation
# ---------------------------------------------------------------------------

def stationary_operator(w, w1, w2, m, xi):
    """Q W = -4 xi W'' - W W' / pi + m xi W' / pi from nodal W, W', W''."""
    return _q(w, w1, w2, -4.0 * xi, m * xi)


def _q(w, w1, w2, neg4xi, mxi):
    """stationary_operator with its grid factors -4 xi and m xi precomputed."""
    return neg4xi * w2 - w * w1 / np.pi + mxi * w1 / np.pi


def apply_q(w, m: float, xi, method: str = "analytic"):
    """Evaluate Q at interior points xi in (0, 1).

    ``w`` is a barrier (analytic derivatives available) or any callable of
    xi (finite differences only).  The FD path uses five-point central
    stencils with a step proportional to the local curvature scale; the
    fourth-order stencils are needed to keep roundoff below the audit
    tolerance near degenerate parameters.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= 0.0) or np.any(xi >= 1.0):
        raise ValueError("Q is evaluated on the open interval (0, 1) only")
    if isinstance(w, (SuperBarrier, SubBarrier)):
        if method == "analytic":
            # drift-factored form: the naive sum of the three operator
            # terms cancels catastrophically near the linear profile
            return -4.0 * xi * w.curvature(xi) + w.drift(xi) * w.slope(xi) / np.pi
        h = 1e-3 * (w.a + xi if isinstance(w, SuperBarrier) else w.b + 1.0 - xi)
        fn = w.value
    else:
        if method == "analytic":
            raise ValueError("analytic derivatives only available for barriers")
        fn = w
        h = 1e-3 * np.minimum(xi, 1.0 - xi)
    f0 = fn(xi)
    fp1, fm1 = fn(xi + h), fn(xi - h)
    fp2, fm2 = fn(xi + 2 * h), fn(xi - 2 * h)
    w1 = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
    w2 = (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * h ** 2)
    return stationary_operator(f0, w1, w2, m, xi)


def residual_super_closed_form(a: float, m: float, xi):
    """Q applied to the concave family, in factored closed form.

    Strictly positive on (0,1) whenever m <= 8*pi; the sign flips across
    xi = (m - 8*pi)/m in the supercritical range.
    """
    xi = np.asarray(xi, dtype=float)
    return (m * xi * (a + 1.0) * a / (a + xi) ** 3) \
        * (8.0 * np.pi - m + m * xi) / np.pi


def residual_sub_closed_form(b: float, m: float, xi):
    """Q applied to the convex family; strictly negative for m <= 8*pi."""
    xi = np.asarray(xi, dtype=float)
    return -(m * xi * (b + 1.0) * b / (np.pi * (b + 1.0 - xi) ** 3)) \
        * (8.0 * np.pi - m + m * xi)


# ---------------------------------------------------------------------------
# constructive envelope fits
# ---------------------------------------------------------------------------

# strict margin above the piecewise-linear envelope, relative to m
_ENVELOPE_MARGIN = 1e-6


def _usable_bound(M: MassProfile, C: float | None) -> float:
    """C, or the default bound when None, checked against m and the window."""
    if C is None:
        C = default_derivative_bound(M)
    if C <= M.total_mass:
        raise DerivativeBoundError(
            f"derivative bound C={C:.6g} must exceed the mass m={M.total_mass:.6g}")
    d = M.grid.stencil.d1_xi(M.values)[1:-1]
    bad = np.where((d <= 1.0 / C) | (d >= C))[0]
    if bad.size:
        raise DerivativeBoundError(
            f"derivative {d[bad[0]]:.6g} at node {bad[0] + 1} violates (1/C, C) "
            f"with C={C:.6g}")
    return C


def default_derivative_bound(M: MassProfile) -> float:
    """2*max(M_xi, 1/M_xi) over interior nodes, inflated by 1.1."""
    d = M.grid.stencil.d1_xi(M.values)[1:-1]
    d = np.maximum(d, 1e-300)
    return 1.1 * 2.0 * float(max(d.max(), (1.0 / d).max()))


def find_dominating_super(M: MassProfile, C: float | None = None) -> SuperBarrier:
    """Weakest concave barrier provably above M, built from derivative bounds.

    Requires C > m and the discrete derivative of M inside (1/C, C).  The
    crossing point xi0 of the two envelope chords determines the largest a
    with value(xi0) exceeding the envelope by a strict margin; concavity
    then pushes the whole barrier above M.  Nodewise domination is checked
    exhaustively before returning.  Raises DerivativeBoundError when C admits
    no fit and DominationError when the exhaustive check fails.
    """
    m = M.total_mass
    C = _usable_bound(M, C)
    xi0 = (m - 1.0 / C) / (C - 1.0 / C)  # where the chords C xi and m - (1 - xi)/C cross
    y = C * xi0 + _ENVELOPE_MARGIN * m
    if y >= m:
        raise DerivativeBoundError("envelope margin exceeds the upper chord; C too large")
    a = xi0 * (y - m) / (m * xi0 - y)
    bar = SuperBarrier(a, m)
    gap = bar.value(M.grid.nodes) - M.values
    # boundary nodes agree exactly in exact arithmetic; allow their roundoff
    if gap.min() < -1e-12 * m:
        raise DominationError(int(np.argmin(gap)), float(gap.min()))
    return bar


def find_dominated_sub(M: MassProfile, C: float | None = None) -> SubBarrier:
    """Mirror of find_dominating_super with the convex family, below M."""
    m = M.total_mass
    C = _usable_bound(M, C)
    xi0 = (C - m) / (C - 1.0 / C)  # where the chords xi/C and m - C (1 - xi) cross
    y = xi0 / C - _ENVELOPE_MARGIN * m
    if y <= 0:
        raise DerivativeBoundError("envelope margin exceeds the lower chord; C too large")
    b = y * (1.0 - xi0) / (m * xi0 - y)
    bar = SubBarrier(b, m)
    gap = M.values - bar.value(M.grid.nodes)
    if gap.min() < -1e-12 * m:
        raise DominationError(int(np.argmin(gap)), float(gap.min()))
    return bar


def separation_margin(upper: MassProfile, lower: MassProfile) -> float:
    """min over interior nodes of (upper - lower) / (xi (1 - xi)).

    Positive margins certify the quantitative gap used when sliding the
    barrier parameter during the uniqueness sweep.
    """
    if upper.grid != lower.grid:
        raise ValueError("profiles must share a grid")
    gap = upper.values[1:-1] - lower.values[1:-1]
    if gap.min() < -1e-12 * upper.total_mass:
        raise DominationError(int(np.argmin(gap)) + 1, float(gap.min()))
    return float(_margins(gap, upper.grid.nodes))


def _margins(gap, xi):
    """min over the last axis of gap / (xi (1 - xi)), gap at the interior nodes of xi."""
    xi = xi[1:-1]
    return np.min(gap / (xi * (1.0 - xi)), axis=-1)


# ---------------------------------------------------------------------------
# audit grid
# ---------------------------------------------------------------------------

def audit_residuals(a_values, m_values, xi_values):
    """Residual audit rows over a (parameter, mass, position) product grid.

    Returns one row per (a, m, xi) for the concave family: closed-form
    residual, the finite-difference evaluation of Q, and their absolute
    difference.
    """
    rows = []
    for a in np.asarray(a_values, dtype=float):
        for m in np.asarray(m_values, dtype=float):
            bar = SuperBarrier(a, m)
            xi = np.asarray(xi_values, dtype=float)
            closed = residual_super_closed_form(a, m, xi)
            fd = apply_q(bar, m, xi, method="fd")
            for j in range(xi.size):
                rows.append((a, m, float(xi[j]), float(closed[j]), float(fd[j]),
                             float(abs(closed[j] - fd[j]))))
    return rows
