"""Monotone time integration of the degenerate scalar mass equation.

The cumulative mass solves M_t = 4 xi M_xixi + c M_xi with c = (M - m xi)/pi
on (0,1), M(0)=0, M(1)=m.  One step freezes c at the current profile and
solves the tridiagonal system (I - dt W(c)) M_new = M, where W(c) is the
exponentially fitted (Il'in / Scharfetter-Gummel) three-point operator of
4 xi f'' + c f' (radial.FittedOperator):

    (W f)_i = wl_i (f_{i-1} - f_i) + wr_i (f_{i+1} - f_i),   wl, wr >= 0.

Discrete comparison.  Let lo <= up nodewise, both with the Dirichlet data,
and let lo', up' be their images under one step of the same dt.

1. A(c) = I - dt W(c) has the diagonal 1 + dt (wl + wr), nonpositive
   off-diagonals and strict row diagonal dominance, so it is an M-matrix
   with A(c)^-1 >= 0 for every dt > 0.
2. c is increasing in M, so c_lo <= c_up nodewise, and wl_i falls while
   wr_i rises with c_i.  From A(c_up) up' = up and A(c_lo) lo' = lo,

       A(c_up) (up' - lo') = (up - lo) + dt (W(c_up) - W(c_lo)) lo',

   and row i of the last term is
   (wl_i(c_up) - wl_i(c_lo)) (lo'_{i-1} - lo'_i)
   + (wr_i(c_up) - wr_i(c_lo)) (lo'_{i+1} - lo'_i), a sum of two products
   of factors of equal sign whenever lo' is nondecreasing.

So up' >= lo': the one-step map keeps order at every dt whenever the
lower image is nondecreasing, and no CFL condition enters.  simulate
checks every new profile for monotonicity and counts the clips it needs
(SimulationTrace.clip_events).  The step bound (cfl_limit) controls
accuracy only.  This is what lets closed-form barriers confine numerical
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .radial import FittedOperator, Grid, MassProfile, cumulative_trapezoid
from .energy import _LOG_FLOOR, _free_energy_dissipation

VERDICT_COMPLETED = "completed"
VERDICT_BLOWUP = "blowup_detected"
VERDICT_STEP_FLOOR = "step_floor_reached"

# monotonicity violations below this (relative to m) are tolerated untouched
_MONO_CLIP_TOL = 1e-12


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping parameters: the one definition of the scheme.* config
    keys, their defaults and their validity."""

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
            raise ValueError("dt0, t_end, snapshot_every and u_blowup_threshold "
                             "must be finite")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if not (self.dt0 > self.dt_min > 0.0):
            raise ValueError("dt0 > dt_min > 0 required")
        if self.t_end <= 0.0 or self.snapshot_every <= 0.0:
            raise ValueError("t_end and snapshot_every must be positive")
        if self.threshold(1.0) <= 0.0:
            raise ValueError("u_blowup_threshold must be positive")

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


def _floor_verdict(sup_u: float, sup_u0: float, threshold: float) -> str:
    """Verdict of a run whose step fell under dt_min.

    Blowup if sup u has crossed the threshold or grown tenfold from its
    initial value, else the step floor.
    """
    if sup_u > threshold or sup_u > 10.0 * sup_u0:
        return VERDICT_BLOWUP
    return VERDICT_STEP_FLOOR


class _Workspace:
    """Grid-bound scratch: the fitted operator and the tridiagonal buffers.

    lag(M) freezes c = c(M) and the weights of W(c); advance(dt) then solves
    (I - dt W) M_new = M.  A retried step with a shorter dt reuses the weights.
    """

    def __init__(self, grid: Grid, m: float):
        self.m = float(m)
        self.xi = grid.nodes
        self.r = grid.radii
        self.st = grid.stencil
        self._mxi = self.m * self.xi
        self._op = FittedOperator(self.st, 4.0 * self.xi[1:-1])
        self._two_over_hbar = 4.0 / (self.st.hm + self.st.hp)
        n = grid.n
        self._dl = np.zeros(n)
        self._d = np.ones(n + 1)
        self._du = np.zeros(n)
        self._log_floor = _LOG_FLOOR * self.m / np.pi
        self._vr_scale = np.zeros_like(self.r)
        self._vr_scale[1:] = -1.0 / (2.0 * np.pi * self.r[1:])

    def density(self, M):
        u = self.st.d1_xi(M) / np.pi
        np.maximum(u, 0.0, out=u)
        return u

    def lag(self, M) -> float:
        """Freeze c = c(M) for the next steps; return the step bound of M.

        c feeds both the fitted weights and the bound (see cfl_limit).
        """
        c = (M[1:-1] - self._mxi[1:-1]) / np.pi
        self._M = M
        wl, wr = self._wl, self._wr = self._op.weights(c)
        dm = M[1:-1] - M[:-2]
        dp = M[2:] - M[1:-1]
        # (|c| / hbar) (|V| / hbar) with V = (W M) (hm + hp) / (M_{i+1} - M_{i-1});
        # where M is flat W M = 0 too, and the 1e-300 keeps 0/0 out
        rate2 = (np.abs(c * (wr * dp - wl * dm)) * self._two_over_hbar
                 / (dp + dm + 1e-300))
        peak = float(rate2.max())
        return np.inf if peak == 0.0 else 1.0 / np.sqrt(peak)

    def advance(self, dt):
        """One implicit step from the lagged profile; Dirichlet data exact."""
        dl, d, du = self._dl, self._d, self._du
        np.multiply(self._wl, -dt, out=dl[:-1])
        np.multiply(self._wr, -dt, out=du[1:])
        np.subtract(1.0, dl[:-1], out=d[1:-1])
        d[1:-1] -= du[1:]
        b = self._M.copy()
        b[0] = 0.0
        b[-1] = self.m
        _, _, _, out, info = dgtsv(dl, d, du, b, overwrite_b=True)
        if info != 0:
            out[:] = np.nan
        out[0] = 0.0
        out[-1] = self.m
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
        s = (M - self._mxi) * self._vr_scale  # v_r = -(M - m xi) / (2 pi r)
        v = cumulative_trapezoid(s, self.r)
        v -= w_xi @ v
        F, D, _ = _free_energy_dissipation(u, v, self._log_floor, self.st)
        sup_u = float(u.max())
        sup_mxi = float(np.max(M[1:] / self.xi[1:]))
        secmom = m - float(w_xi @ M)
        peak_xi = float(self.xi[1 + int(np.argmax(u[1:-1]))])
        return sup_u, sup_mxi, F, D, secmom, peak_xi


def step(M: MassProfile, dt: float) -> MassProfile:
    """Single time advance of a mass profile (standalone convenience)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ws = _Workspace(M.grid, M.total_mass)
    ws.lag(M.values)
    out = ws.advance(dt)
    out, _ = ws.repair_monotone(out)
    return MassProfile(M.grid, out, M.total_mass)


def cfl_limit(M: MassProfile) -> float:
    """Step bound of M: 1 / max_i sqrt(|c_i| |V_i|) / hbar_i.

    The implicit step is monotone and order-preserving at every dt, so this
    bound controls accuracy, not monotonicity.  c is the advection speed,
    V = (W M) / M_xi the speed of the level sets of M, hbar the mean width
    of the two cells at a node.  dt |c| / hbar is the advective Courant
    number, which measures how stale the frozen c gets over a step, and
    dt |V| / hbar the transport Courant number, which measures how far the
    profile moves; the bound caps their geometric mean at 1.  Where
    advection and diffusion balance (|V| << |c|, a concentrated profile
    near its stationary shape) it is longer than the advective bound alone,
    and where diffusion moves mass faster than advection (|V| > |c|) it is
    shorter.  It is proportional to the cell width, so the time error falls
    with h.  inf when nothing moves (c = 0 or W M = 0 at every node).
    """
    return _Workspace(M.grid, M.total_mass).lag(M.values)


def simulate(config: SchemeConfig, M0: MassProfile) -> SimulationTrace:
    """Adaptive integration of the mass equation up to t_end or termination.

    dt grows geometrically toward cfl * cfl_limit; nonfinite output or
    a diagnostic spike halves dt and retries.  All failure modes become
    verdicts; identical inputs produce a bit-identical trace.
    """
    m = M0.total_mass
    ws = _Workspace(config.grid, m)
    threshold = config.threshold(m)

    M = M0.values.copy()
    t = 0.0
    trace = SimulationTrace(total_mass=m)
    diag = ws.diagnostics(M)
    trace.record(t, 0.0, diag)
    trace.snapshots.append((t, MassProfile(config.grid, M.copy(), m)))
    next_snap = config.snapshot_every
    sup_u0 = sup_u_prev = diag[0]

    dt = min(config.dt0, config.cfl * ws.lag(M))
    while t < config.t_end:
        # land exactly on snapshot times and t_end so recorded profiles are
        # comparable across resolutions
        dt_eff = min(dt, config.t_end - t, max(next_snap - t, config.dt_min))
        trial = ws.advance(dt_eff)
        ok = bool(np.isfinite(trial).all())
        clipped = False
        if ok:
            trial, clipped = ws.repair_monotone(trial)
            diag = ws.diagnostics(trial)
            spike = diag[0] > 10.0 * sup_u_prev and diag[0] > threshold * 1e-3
            ok = np.isfinite(diag[2]) and not spike
        if ok:
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
            dt = min(1.5 * dt, config.cfl * ws.lag(M))
        else:
            dt *= 0.5
        if dt < config.dt_min:
            trace.set_verdict(_floor_verdict(sup_u_prev, sup_u0, threshold))
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
        dt = config.cfl * min(ws_lo.lag(lo), ws_up.lag(up))
        dt = min(dt, config.dt0 * 1e3, T - t)
        if dt < config.dt_min:
            break
        lo = ws_lo.advance(dt)
        up = ws_up.advance(dt)
        t += dt
        steps += 1
        worst = max(worst, float((lo - up).max(initial=0.0)))
    return ComparisonReport(worst, t, steps)


def bound_gradient_v(trace: SimulationTrace) -> float:
    """Uniform |v_r| bound implied by the recorded sup M/xi diagnostics."""
    sup = max(trace.sup_m_over_xi)
    return (sup + trace.total_mass) / (2.0 * np.pi)
