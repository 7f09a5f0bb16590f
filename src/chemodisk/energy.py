"""Free energy, its dissipation, decay audits, and the log-HLS margin.

F(u) = int u ln u - (1/2) int u v is nonincreasing along solutions, with
dissipation int u |grad(ln u - v)|^2.  For radial mass-lambda profiles
with lambda <= 8*pi, F is bounded below by lambda*ln(lambda/pi), with
equality only at the constant state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import radial
from .radial import EIGHT_PI, Grid, ProfileError, RadialField, Stencil

# density floor inside logarithms, relative to the mean density m/pi
_LOG_FLOOR = 1e-14


@dataclass(frozen=True)
class EnergyReport:
    value: float
    dissipation: float
    clamp_count: int


@dataclass(frozen=True)
class DecayAudit:
    max_upward_jump: float
    budget_residual: float
    energy_drop: float


def _disk_integral(f, grid: Grid) -> float:
    """2*pi * int f(r) r dr at the radii of grid, evaluated as pi * int f dxi.

    Radial regularity (f'(0) = 0) makes the xi-form integrand smooth, and
    it keeps every quadrature in the package on the same composite
    trapezoid rule.
    """
    return radial._trapezoid_value(np.pi * np.asarray(f, dtype=float), grid.nodes)


def _mass_of(u: RadialField) -> float:
    return _disk_integral(u.values, u.grid)


def _free_energy_dissipation(u, v, floor, st: Stencil, scratch=None):
    """(F, D) for nodal density u and potential v.

    F = pi int (u ln u - u v / 2) dxi and D = pi int u ((ln u - v)_r)^2 dxi,
    both with the trapezoid weights of the stencil and u floored inside the
    log.  The same difference stencil is applied to ln u and v, so profiles
    with u = C exp(v) dissipate exactly zero up to roundoff.  The solver
    calls this every step, with scratch: three arrays shaped like u to
    compute in (new ones if None).
    """
    lnu, f, g = scratch if scratch is not None else (np.empty_like(u) for _ in range(3))
    np.log(np.maximum(u, floor, out=lnu), out=lnu)
    np.multiply(u, lnu, out=f)
    f -= np.multiply(np.multiply(0.5, u, out=g), v, out=g)  # u ln u - 0.5 u v
    F = np.pi * float(st.w_xi @ f)
    gp = st.d1_r(np.subtract(lnu, v, out=g), out=f, tmp=lnu[1:-1])
    np.multiply(u, gp, out=g)
    g *= gp  # u gp gp
    D = max(np.pi * float(st.w_xi @ g), 0.0)
    return F, D


def free_energy(u: RadialField, v: RadialField) -> float:
    return energy_report(u, v).value


def energy_report(u: RadialField, v: RadialField) -> EnergyReport:
    """F(u) = 2*pi int (u ln u - u v / 2) r dr, with u floored in the log, and
    the dissipation 2*pi int u (d/dr (ln u - v))^2 r dr >= 0 on the grid of u and v."""
    if u.grid != v.grid:
        raise ProfileError("density and potential must share a grid")
    if np.any(u.values < 0):
        raise ProfileError("density must be nonnegative")
    m = _mass_of(u)
    floor = _LOG_FLOOR * m / np.pi
    clamped = int(np.count_nonzero(u.values < floor))
    F, D = _free_energy_dissipation(u.values, v.values, floor, u.grid.stencil)
    return EnergyReport(F, D, clamped)


def dissipation(u: RadialField, v: RadialField) -> float:
    return energy_report(u, v).dissipation


def audit_decay(trace) -> DecayAudit:
    """Check monotone decay of F and the energy-dissipation budget.

    Reports the largest upward jump of F between recorded steps and the
    relative mismatch between F(0) - F(T) and the time integral of the
    dissipation.
    """
    F = np.asarray(trace.energy, dtype=float)
    D = np.asarray(trace.dissipation, dtype=float)
    t = np.asarray(trace.times, dtype=float)
    jumps = np.diff(F)
    max_up = float(jumps.max(initial=0.0))
    drop = float(F[0] - F[-1])
    integral = radial._trapezoid_value(D, t)
    denom = abs(drop) if drop != 0.0 else 1.0
    return DecayAudit(max_up, abs(drop - integral) / denom, drop)


def loghls_margin(U: RadialField) -> float:
    """F(U) - lambda*ln(lambda/pi) with v reconstructed from U.

    Nonnegative for radial profiles with mass lambda <= 8*pi; zero only at
    the constant state.
    """
    lam = _mass_of(U)
    if lam > EIGHT_PI * (1.0 + 1e-12):
        raise ValueError(f"mass {lam:.6g} above 8*pi is outside the inequality's range")
    M = radial.mass_from_density(U)
    v = radial.potential_from_slope(radial.potential_slope_from_mass(M))
    return free_energy(U, v) - lam * np.log(lam / np.pi)


def random_radial_profiles(count: int, grid: Grid, seed: int):
    """Seeded corpus of smooth nonnegative radial profiles.

    Each profile is a constant plus 1-3 Gaussian bumps in r, rejection
    sampled for positivity and rescaled to a target mass drawn uniformly
    from [0.4, 8*pi].
    """
    rng = np.random.default_rng(seed)
    r = grid.radii
    out = []
    while len(out) < count:
        base = rng.uniform(0.2, 1.0)
        u = np.full_like(r, base)
        for _ in range(rng.integers(1, 4)):
            amp = rng.uniform(-0.8, 3.0)
            center = rng.uniform(0.0, 1.0)
            width = rng.uniform(0.08, 0.45)
            u = u + amp * np.exp(-((r - center) ** 2) / (2.0 * width ** 2))
        if u.min() <= 1e-3:
            continue
        lam = rng.uniform(0.4, EIGHT_PI)
        raw_mass = _disk_integral(u, grid)
        out.append(RadialField(grid, u * (lam / raw_mass)))
    return out
