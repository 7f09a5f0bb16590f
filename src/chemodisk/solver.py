"""Monotone time integration of the degenerate scalar mass equation.

The cumulative mass solves M_t = 4 xi M_xixi + M M_xi / pi - m xi M_xi / pi
on (0,1) with M(0)=0, M(1)=m.  Diffusion is treated implicitly (the
tridiagonal system is an M-matrix), advection is rewritten as c(xi) M_xi
with c = (M - m xi)/pi and discretized by explicit first-order upwinding
on the lagged profile.  Under the upwind CFL restriction the one-step map
is monotone, which is what makes the comparison principle hold discretely
and lets closed-form barriers confine numerical solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .radial import Grid, MassProfile, cumulative_trapezoid
from .energy import _LOG_FLOOR, _free_energy_dissipation

VERDICT_COMPLETED = "completed"
VERDICT_BLOWUP = "blowup_detected"
VERDICT_STEP_FLOOR = "step_floor_reached"

# monotonicity violations below this (relative to m) are tolerated untouched
_MONO_CLIP_TOL = 1e-12


@dataclass(frozen=True)
class SchemeConfig:
    grid: Grid
    dt0: float = 1e-3
    cfl: float = 0.9
    t_end: float = 10.0
    snapshot_every: float = 1.0
    u_blowup_threshold: float | None = None  # default 1e6 * m / pi
    dt_min: float = 1e-12

    def __post_init__(self):
        if not np.all(np.isfinite([self.dt0, self.t_end, self.snapshot_every,
                                   self.threshold(1.0)])):
            raise ValueError("dt0, t_end, snapshot_every and threshold must be finite")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if not (self.dt0 > self.dt_min > 0.0):
            raise ValueError("dt0 > dt_min > 0 required")
        if self.t_end <= 0.0 or self.snapshot_every <= 0.0:
            raise ValueError("t_end and snapshot_every must be positive")

    def threshold(self, m: float) -> float:
        if self.u_blowup_threshold is not None:
            return self.u_blowup_threshold
        return 1e6 * m / np.pi


@dataclass
class SimulationTrace:
    """Per-step diagnostics, periodic snapshots, and a termination verdict."""

    total_mass: float
    times: list = field(default_factory=list)
    dts: list = field(default_factory=list)
    sup_u: list = field(default_factory=list)
    sup_m_over_xi: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    dissipation: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # (t, MassProfile)
    verdict: str | None = None
    blowup_time: float | None = None
    blowup_xi: float | None = None
    clip_events: int = 0

    def record(self, t, dt, diag):
        if self.times and t <= self.times[-1]:
            raise ValueError("trace times must be strictly increasing")
        self.times.append(t)
        self.dts.append(dt)
        self.sup_u.append(diag[0])
        self.sup_m_over_xi.append(diag[1])
        self.energy.append(diag[2])
        self.dissipation.append(diag[3])
        self.second_moment.append(diag[4])

    def set_verdict(self, verdict: str):
        if self.verdict is not None:
            raise ValueError("verdict already set")
        self.verdict = verdict


@dataclass(frozen=True)
class ComparisonReport:
    max_violation: float
    t_final: float
    steps: int


class BlowupDetector:
    """Threshold plus step-floor blowup criterion.

    Fires when sup u exceeds the threshold, or when adaptive halving drives
    dt under the floor while the density has already grown substantially.
    """

    def __init__(self, threshold: float, dt_min: float, sup_u0: float,
                 growth_factor: float = 10.0):
        self.threshold = threshold
        self.dt_min = dt_min
        self.sup_u0 = sup_u0
        self.growth_factor = growth_factor

    def check(self, sup_u: float, dt: float) -> str | None:
        if sup_u > self.threshold:
            return VERDICT_BLOWUP
        if dt < self.dt_min:
            if sup_u > self.growth_factor * self.sup_u0:
                return VERDICT_BLOWUP
            return VERDICT_STEP_FLOOR
        return None


class _Workspace:
    """Grid-bound scratch: the grid's stencil and the banded diffusion template."""

    def __init__(self, grid: Grid, m: float):
        self.m = float(m)
        self.xi = grid.nodes
        self.r = grid.radii
        self.st = grid.stencil

        # banded template for I - dt * 4 xi d2 (rows 0 and n are identity)
        cA2, cB2, cC2 = self.st.d2
        xi_in = self.xi[1:-1]
        n = grid.n
        self._diagD = np.zeros(n + 1)
        self._diagD[1:-1] = 4.0 * xi_in * cB2
        self._supD = np.zeros(n + 1)
        self._supD[2:] = 4.0 * xi_in * cC2
        self._subD = np.zeros(n + 1)
        self._subD[:-2] = 4.0 * xi_in * cA2
        self._ab = np.empty((3, n + 1))
        self._log_floor = _LOG_FLOOR * self.m / np.pi

    def density(self, M):
        u = self.st.d1_xi(M) / np.pi
        np.maximum(u, 0.0, out=u)
        return u

    def wave_speed(self, M):
        return (M - self.m * self.xi) / np.pi

    def cfl_limit(self, M) -> float:
        """Largest dt keeping the explicit upwind update monotone."""
        c = self.wave_speed(M)[1:-1]
        h_up = np.where(c >= 0.0, self.st.hp, self.st.hm)
        ac = np.abs(c)
        mask = ac > 1e-14 * max(1.0, self.m / np.pi)
        if not mask.any():
            return np.inf
        return float(np.min(h_up[mask] / ac[mask]))

    def advance(self, M, dt):
        """One advection-then-diffusion step; Dirichlet data reimposed exactly."""
        m = self.m
        c = self.wave_speed(M)[1:-1]
        fwd = (M[2:] - M[1:-1]) / self.st.hp
        bwd = (M[1:-1] - M[:-2]) / self.st.hm
        Mstar = M.copy()
        Mstar[1:-1] += dt * c * np.where(c >= 0.0, fwd, bwd)
        Mstar[0] = 0.0
        Mstar[-1] = m

        ab = self._ab
        np.multiply(self._supD, -dt, out=ab[0])
        np.multiply(self._diagD, -dt, out=ab[1])
        ab[1] += 1.0
        np.multiply(self._subD, -dt, out=ab[2])
        out = solve_banded((1, 1), ab, Mstar, overwrite_b=True, check_finite=False)
        out[0] = 0.0
        out[-1] = m
        return out

    def repair_monotone(self, M):
        """Clip to nondecreasing only if the violation is above noise level."""
        worst = float(np.diff(M).min(initial=0.0))
        if worst >= -_MONO_CLIP_TOL * self.m:
            return M, False
        out = np.maximum.accumulate(M)
        np.clip(out, 0.0, self.m, out=out)
        out[0] = 0.0
        out[-1] = self.m
        return out, True

    def diagnostics(self, M):
        """(sup_u, sup M/xi, free energy, dissipation, second moment, peak_xi)."""
        m = self.m
        w_xi = self.st.w_xi
        u = self.density(M)
        s = np.zeros_like(M)
        s[1:] = -(M[1:] - m * self.xi[1:]) / (2.0 * np.pi * self.r[1:])
        v = cumulative_trapezoid(s, self.r)
        v -= w_xi @ v
        F, D, _ = _free_energy_dissipation(u, v, self._log_floor, self.st)
        sup_u = float(u.max())
        sup_mxi = float(np.max(M[1:] / self.xi[1:]))
        secmom = m - float(w_xi @ M)
        peak_xi = float(self.xi[1 + int(np.argmax(u[1:-1]))])
        return sup_u, sup_mxi, F, D, secmom, peak_xi


def step(M: MassProfile, dt: float, m: float | None = None) -> MassProfile:
    """Single time advance of a mass profile (standalone convenience)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    m = M.total_mass if m is None else m
    ws = _Workspace(M.grid, m)
    out = ws.advance(M.values, dt)
    out, _ = ws.repair_monotone(out)
    return MassProfile(M.grid, out, m)


def cfl_limit(M: MassProfile, m: float | None = None) -> float:
    m = M.total_mass if m is None else m
    return _Workspace(M.grid, m).cfl_limit(M.values)


def simulate(config: SchemeConfig, M0: MassProfile, m: float | None = None) -> SimulationTrace:
    """Adaptive integration of the mass equation up to t_end or termination.

    dt grows geometrically toward the upwind CFL bound; nonfinite output or
    a diagnostic spike halves dt and retries.  All failure modes become
    verdicts; identical inputs produce a bit-identical trace.
    """
    m = M0.total_mass if m is None else float(m)
    ws = _Workspace(config.grid, m)
    threshold = config.threshold(m)

    M = M0.values.copy()
    t = 0.0
    trace = SimulationTrace(total_mass=m)
    diag = ws.diagnostics(M)
    trace.record(t, 0.0, diag)
    trace.snapshots.append((t, MassProfile(config.grid, M.copy(), m)))
    detector = BlowupDetector(threshold, config.dt_min, diag[0])
    next_snap = config.snapshot_every
    sup_u_prev = diag[0]

    dt = min(config.dt0, config.cfl * ws.cfl_limit(M))
    while t < config.t_end:
        # land exactly on snapshot times and t_end so recorded profiles are
        # comparable across resolutions
        dt_eff = min(dt, config.t_end - t, max(next_snap - t, config.dt_min))
        trial = ws.advance(M, dt_eff)
        ok = bool(np.isfinite(trial).all())
        clipped = False
        if ok:
            trial, clipped = ws.repair_monotone(trial)
            diag = ws.diagnostics(trial)
            spike = diag[0] > 10.0 * sup_u_prev and diag[0] > threshold * 1e-3
            ok = np.isfinite(diag[2]) and not spike
        if not ok:
            dt *= 0.5
            if dt < config.dt_min:
                trace.set_verdict(detector.check(sup_u_prev, dt) or VERDICT_STEP_FLOOR)
                trace.blowup_time = t
                break
            continue
        if clipped:
            trace.clip_events += 1
        M = trial
        t += dt_eff
        trace.record(t, dt_eff, diag)
        sup_u_prev = diag[0]
        if diag[0] > threshold:
            trace.set_verdict(VERDICT_BLOWUP)
            trace.blowup_time = t
            trace.blowup_xi = diag[5]
            trace.snapshots.append((t, MassProfile(config.grid, M.copy(), m)))
            break
        if t >= next_snap - 1e-12:
            trace.snapshots.append((t, MassProfile(config.grid, M.copy(), m)))
            while next_snap <= t + 1e-12:
                next_snap += config.snapshot_every
        dt = min(1.5 * dt, config.cfl * ws.cfl_limit(M))
        if dt < config.dt_min:
            trace.set_verdict(detector.check(sup_u_prev, dt) or VERDICT_STEP_FLOOR)
            trace.blowup_time = t
            break
    else:
        trace.set_verdict(VERDICT_COMPLETED)
    if trace.snapshots[-1][0] < t - 1e-12:
        trace.snapshots.append((t, MassProfile(config.grid, M.copy(), m)))
    return trace


def verify_discrete_comparison(lower0: MassProfile, upper0: MassProfile,
                               m: float, T: float,
                               config: SchemeConfig) -> ComparisonReport:
    """Co-evolve an ordered pair with identical steps; report worst violation."""
    if lower0.grid != upper0.grid:
        raise ValueError("profiles must share a grid")
    gap0 = upper0.values - lower0.values
    if gap0.min() < -1e-14 * m:
        raise ValueError(f"initial ordering violated by {-gap0.min():.3g}")
    ws_lo = _Workspace(config.grid, m)
    ws_up = _Workspace(config.grid, m)
    lo = lower0.values.copy()
    up = upper0.values.copy()
    t = 0.0
    worst = 0.0
    steps = 0
    while t < T:
        dt = config.cfl * min(ws_lo.cfl_limit(lo), ws_up.cfl_limit(up))
        dt = min(dt, config.dt0 * 1e3, T - t)
        if dt < config.dt_min:
            break
        lo = ws_lo.advance(lo, dt)
        up = ws_up.advance(up, dt)
        t += dt
        steps += 1
        worst = max(worst, float((lo - up).max(initial=0.0)))
    return ComparisonReport(worst, t, steps)


def bound_gradient_v(trace: SimulationTrace) -> float:
    """Uniform |v_r| bound implied by the recorded sup M/xi diagnostics."""
    sup = max(trace.sup_m_over_xi)
    return (sup + trace.total_mass) / (2.0 * np.pi)
