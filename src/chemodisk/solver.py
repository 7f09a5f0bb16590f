"""Monotone time integration of the degenerate scalar mass equation.

The cumulative mass solves M_t = 4 xi M_xixi + c M_xi with c = (M - m xi)/pi
on (0,1), M(0)=0, M(1)=m.  One step freezes c at the current profile and
solves the tridiagonal system (I - dt W(c)) M_new = M, where W(c) is the
exponentially fitted (Il'in / Scharfetter-Gummel) three-point operator of
4 xi f'' + c f' (radial.FittedOperator):

    (W f)_i = wl_i (f_{i-1} - f_i) + wr_i (f_{i+1} - f_i),   wl, wr >= 0.

Discrete comparison.  Let lo <= up nodewise, both nondecreasing with the
Dirichlet data, and lo', up' their images under one step of the same dt.

1. A(c) = I - dt W(c) has the diagonal 1 + dt (wl + wr), nonpositive
   off-diagonals and strict row diagonal dominance, so it is an M-matrix
   with A(c)^-1 >= 0 for every dt > 0.
2. Set wr_0 = wl_n = 0.  The differences D_j = M_{j+1} - M_j of a profile
   and D'_j of its image solve (1 + dt (wl_{j+1} + wr_j)) D'_j
   - dt wl_j D'_{j-1} - dt wr_{j+1} D'_{j+1} = D_j.  Column j's off-diagonal
   magnitudes sum to one less than its diagonal, so this Z-matrix is an
   M-matrix too: D >= 0 gives D' >= 0, a nondecreasing image.
3. c is increasing in M, so c_lo <= c_up nodewise, and wl_i falls while
   wr_i rises with c_i.  From A(c_up) up' = up and A(c_lo) lo' = lo,
   A(c_up) (up' - lo') = (up - lo) + dt (W(c_up) - W(c_lo)) lo', and row i
   of the last term, (wl_i(c_up) - wl_i(c_lo)) (lo'_{i-1} - lo'_i)
   + (wr_i(c_up) - wr_i(c_lo)) (lo'_{i+1} - lo'_i), is a sum of two
   products of factors of equal sign, since lo' is nondecreasing (2).

So up' >= lo', both nondecreasing, at every dt: no CFL condition enters,
and the step bound (cfl_limit) controls accuracy only.  simulate's clip of
a profile that decreases by more than noise (SimulationTrace.clip_events)
guards against rounding only, and preserves order too.  This is what lets
closed-form barriers confine numerical solutions, and
verify_discrete_comparison checks it on exactly the steps simulate takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._lapack import dgtsv
from .radial import FittedOperator, Grid, MassProfile, _monotone, cumulative_trapezoid
from .energy import _LOG_FLOOR, _free_energy_dissipation

VERDICT_COMPLETED = "completed"
VERDICT_BLOWUP = "blowup_detected"
VERDICT_STEP_FLOOR = "step_floor_reached"

# monotonicity violations below this (relative to m) are tolerated untouched
_MONO_CLIP_TOL = 1e-12


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping parameters: the one definition of the scheme.* config
    keys, their defaults and their validity.  A run steps on the grid of
    the profile it is given, so the scheme has none of its own."""

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
        if self.snapshot_every <= self.dt_min:  # see _integrate
            raise ValueError("snapshot_every must exceed dt_min")
        if self.threshold(1.0) <= 0.0:
            raise ValueError("u_blowup_threshold must be positive")

    def threshold(self, m: float) -> float:
        if self.u_blowup_threshold is not None:
            return self.u_blowup_threshold
        return 1e6 * m / np.pi


@dataclass(frozen=True)
class _LoopState:
    """Where the stepping loop starts or stopped, besides the trace's last
    record and snapshot: the scheme, the step it proposes next (not dts[-1]
    after a landing), the next snapshot time, and whether the last record
    is pending, i.e. still awaits its blowup check, landing snapshot and
    step growth (None before the first trial)."""

    config: SchemeConfig
    dt: float
    next_snap: float
    pending: bool | None = None


@dataclass
class SimulationTrace:
    """Per-step diagnostics, periodic snapshots, and a termination verdict.
    blowup_time is set only for a blowup_detected run, blowup_xi (the node
    of peak density at the stop) only for a run stopped at the threshold."""

    COLUMNS = {"t": "times", "dt": "dts", "sup_u": "sup_u",  # trace.csv, in file order
               "sup_M_over_xi": "sup_m_over_xi", "energy": "energy",
               "dissipation": "dissipation", "second_moment": "second_moment"}

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
    rejected_spike: int = 0  # trials halved for a tenfold jump of sup u
    _stop: _LoopState | None = field(default=None, repr=False)  # read by resume

    def record(self, t, dt, diag):
        row = (t, dt, *diag)
        if len(row) != len(self.COLUMNS):
            raise ValueError(f"a trace row has {len(self.COLUMNS)} values, not {len(row)}")
        if self.times and t <= self.times[-1]:
            raise ValueError("trace times must be strictly increasing")
        for name, value in zip(self.COLUMNS.values(), row):
            getattr(self, name).append(value)


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
    """Grid-bound scratch for the stepping loop: the fitted operator, the
    tridiagonal bands and every array a step computes in, allocated once.

    lag(M) freezes c = c(M) and the weights of W(c); advance(dt) then solves
    (I - dt W) M_new = M.  A retried step with a shorter dt reuses the weights.

    The bits are those of unbuffered NumPy: each method applies the same
    operations to the same operands in the same order, and only writes
    each result into a buffer where NumPy would allocate a new array.

    Shared between a trial and the next lag: repair_monotone computes
    diff(M) and diagnostics M - m xi of the trial M, and when the loop
    accepts the trial, its lag reuses both.  Each shared buffer remembers
    the array it was computed from (_differences, _deviation); advance,
    which writes the next trial over a trial buffer, forgets both, so a
    rejected trial leaves nothing behind for a later array.  advance
    writes into one of two trial buffers, never the one holding the lagged
    profile, so a retry starts from that profile still.  A run keeps
    profiles as MassProfile copies and records floats, so nothing it
    returns is a view of these buffers.
    """

    def __init__(self, grid: Grid, m: float):
        self.grid = grid
        self.m = float(m)
        self.xi = grid.nodes
        self.r = grid.radii
        self.st = grid.stencil
        self._mxi = self.m * self.xi
        self._op = FittedOperator(self.st, 4.0 * self.xi[1:-1])
        self._two_over_hbar = 4.0 / (self.st.hm + self.st.hp)
        self._half_dr = 0.5 * np.diff(self.r)
        n = grid.n
        self._dl = np.zeros(n)
        self._d = np.ones(n + 1)
        self._du = np.zeros(n)
        self._log_floor = _LOG_FLOOR * self.m / np.pi
        self._vr_scale = np.zeros_like(self.r)
        self._vr_scale[1:] = -1.0 / (2.0 * np.pi * self.r[1:])
        self._M = None
        self._trials = (np.empty(n + 1), np.empty(n + 1))
        self._diff, self._diff_of = np.empty(n), None  # diff(M)
        self._dev, self._dev_of = np.empty(n + 1), None  # M - m xi
        self._u, self._v = np.empty(n + 1), np.empty(n + 1)
        self._scratch = tuple(np.empty(n + 1) for _ in range(3))  # energy's
        self._c, self._wl, self._wr = (np.empty(n - 1) for _ in range(3))  # lag's
        self._tmp = (np.empty(n - 1), np.empty(n - 1))  # interior scratch

    def _deviation(self, M):
        """M - m xi, computed once per array M (see the class docstring)."""
        if M is not self._dev_of:
            self._dev_of = M
            np.subtract(M, self._mxi, out=self._dev)
        return self._dev

    def _differences(self, M):
        """diff(M), computed once per array M (see the class docstring)."""
        if M is not self._diff_of:
            self._diff_of = M
            np.subtract(M[1:], M[:-1], out=self._diff)
        return self._diff

    def density(self, M):
        u = self.st.d1_xi(M, out=self._u, tmp=self._tmp[0])
        u /= np.pi
        np.maximum(u, 0.0, out=u)
        return u

    def lag(self, M) -> float:
        """Freeze c = c(M) for the next steps; return the step bound of M.

        c feeds both the fitted weights and the bound (see cfl_limit).
        """
        self._M = M
        c = np.divide(self._deviation(M)[1:-1], np.pi, out=self._c)
        wl, wr = self._op.weights(c, out=(self._wl, self._wr))
        diff = self._differences(M)
        dm, dp = diff[:-1], diff[1:]
        # (|c| / hbar) (|V| / hbar) with V = (W M) (hm + hp) / (M_{i+1} - M_{i-1}):
        # rate2 = |c (wr dp - wl dm)| (2 / hbar) / (dp + dm + 1e-300), where
        # M is flat W M = 0 too, and the 1e-300 keeps 0/0 out
        rate2, den = self._tmp
        np.multiply(wr, dp, out=rate2)
        rate2 -= np.multiply(wl, dm, out=den)
        rate2 *= c
        np.abs(rate2, out=rate2)
        rate2 *= self._two_over_hbar
        np.add(dp, dm, out=den)
        den += 1e-300
        rate2 /= den
        peak = float(rate2.max())
        return np.inf if peak == 0.0 else 1.0 / np.sqrt(peak)

    def advance(self, dt):
        """One implicit step from the lagged profile; Dirichlet data exact."""
        dl, d, du = self._dl, self._d, self._du
        np.multiply(self._wl, -dt, out=dl[:-1])
        np.multiply(self._wr, -dt, out=du[1:])
        np.subtract(1.0, dl[:-1], out=d[1:-1])
        d[1:-1] -= du[1:]
        # dgtsv overwrites the bands with its factors: pin the Dirichlet rows again
        dl[-1] = du[0] = 0.0
        d[0] = d[-1] = 1.0
        self._diff_of = self._dev_of = None
        b = self._trials[self._M is self._trials[0]]
        np.copyto(b, self._M)
        b[0] = 0.0
        b[-1] = self.m
        _, _, _, out, info = dgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1,
                                   overwrite_du=1, overwrite_b=1)
        if info != 0:
            out[:] = np.nan
        out[0] = 0.0
        out[-1] = self.m
        return out

    def repair_monotone(self, M):
        """Clip to nondecreasing only if the violation is above noise level."""
        worst = float(self._differences(M).min(initial=0.0))
        if worst >= -_MONO_CLIP_TOL * self.m:
            return M, False
        return _monotone(M, self.m), True

    def step(self, M, dt):
        """lag at M, advance by dt, repair: the map of one stepping-loop step."""
        self.lag(M)
        return self.repair_monotone(self.advance(dt))[0]

    def diagnostics(self, M):
        """(sup_u, sup M/xi, free energy, dissipation, second moment), as recorded."""
        m = self.m
        w_xi = self.st.w_xi
        u = self.density(M)
        # v_r = -(M - m xi) / (2 pi r)
        s = np.multiply(self._deviation(M), self._vr_scale, out=self._scratch[0])
        v = cumulative_trapezoid(s, self.r, out=self._v, half_dx=self._half_dr)
        v -= w_xi @ v
        F, D = _free_energy_dissipation(u, v, self._log_floor, self.st, self._scratch)
        sup_u = float(u.max())
        sup_mxi = float(np.divide(M[1:], self.xi[1:], out=self._scratch[0][1:]).max())
        secmom = m - float(w_xi @ M)
        return sup_u, sup_mxi, F, D, secmom


def step(M: MassProfile, dt: float) -> MassProfile:
    """One step of the stepping loop: lag c at M, advance by dt, repair."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = _Workspace(M.grid, M.total_mass).step(M.values, dt)
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
    """Adaptive integration on the grid of M0 up to t_end or termination.

    dt grows geometrically toward cfl * cfl_limit; nonfinite output or
    a diagnostic spike halves dt and retries.  All failure modes become
    verdicts; identical inputs produce a bit-identical trace.
    """
    m = M0.total_mass
    ws = _Workspace(M0.grid, m)
    M = M0.values.copy()
    trace = SimulationTrace(total_mass=m)
    trace.record(0.0, 0.0, ws.diagnostics(M))
    trace.snapshots.append((0.0, MassProfile(M0.grid, M, m)))
    dt = min(config.dt0, config.cfl * ws.lag(M))
    return _integrate(ws, trace, M, _LoopState(config, dt, config.snapshot_every))


def resume(trace: SimulationTrace, threshold: float) -> SimulationTrace:
    """Continue a stopped run under a higher blowup threshold.

    The run keeps its grid and its scheme, with u_blowup_threshold set to
    threshold; a threshold below the run's own raises ValueError.  The
    stepping loop of simulate re-enters in the state it stopped in, so the
    stop condition that fired is evaluated again under the new threshold: a
    completed run returns at once, a run stopped at the step floor gets its
    floor verdict again, and a run stopped by the threshold stops at the
    same step if its last sup u is still above the new one, else keeps
    stepping (its stop snapshot is dropped unless it was also a landing
    snapshot).  The threshold decides where a run stops, never which steps
    it takes, so the result equals a fresh simulate under the new scheme bit
    for bit.  The trace passed in, its lists and its snapshot arrays are not
    changed.
    """
    stop = trace._stop
    if stop is None:
        raise ValueError("only a trace returned by simulate or resume can be resumed")
    config = replace(stop.config, u_blowup_threshold=threshold)
    m = trace.total_mass
    if config.threshold(m) < stop.config.threshold(m):
        raise ValueError("resume needs a threshold at or above the run's own")
    copies = {name: list(getattr(trace, name))
              for name in (*SimulationTrace.COLUMNS.values(), "snapshots")}
    if stop.pending:  # the threshold stop's snapshot, taken before the landing check
        copies["snapshots"].pop()
    out = replace(trace, **copies, verdict=None, blowup_time=None,
                  blowup_xi=None, _stop=None)
    last = trace.snapshots[-1][1]  # the profile the run stopped at
    ws = _Workspace(last.grid, m)
    return _integrate(ws, out, last.values, replace(stop, config=config))


def _integrate(ws: _Workspace, trace: SimulationTrace, M,
               state: _LoopState) -> SimulationTrace:
    """The stepping loop of simulate and resume.

    Steps from the trace's last record, whose profile is M, in the given
    loop state until a stop condition sets the verdict and breaks.  The one
    exit after the loop sets the stop fields and snapshot, and keeps the
    state it stopped in as trace._stop, for resume.
    """
    config, dt, next_snap = state.config, state.dt, state.next_snap
    pending = state.pending
    m, grid = trace.total_mass, ws.grid
    threshold = config.threshold(m)
    # a tenfold jump of sup u is a spike only above this floor; it does not
    # depend on the threshold, so a run's steps do not either (resume)
    spike_floor = 1e3 * m / np.pi
    t = trace.times[-1]
    sup_u0 = trace.sup_u[0]
    while True:
        if pending:
            if trace.sup_u[-1] > threshold:
                trace.verdict = VERDICT_BLOWUP
                break
            if t >= next_snap - config.dt_min:  # dt_min: the time resolution
                trace.snapshots.append((t, MassProfile(grid, M, m)))  # copies M
                while next_snap <= t + config.dt_min:
                    next_snap += config.snapshot_every
                # a sum of snapshot_every within dt_min of t_end is t_end,
                # or the run ends on a step shorter than its resolution
                if abs(next_snap - config.t_end) <= config.dt_min:
                    next_snap = config.t_end
            dt = min(1.5 * dt, config.cfl * ws.lag(M))
            pending = False
        if pending is not None and dt < config.dt_min:
            trace.verdict = _floor_verdict(trace.sup_u[-1], sup_u0, threshold)
            break
        if t >= config.t_end:
            trace.verdict = VERDICT_COMPLETED
            break
        # land exactly on snapshot times and t_end so recorded profiles are
        # comparable across resolutions; next_snap is t_end or past t + dt_min
        dt_eff = min(dt, config.t_end - t, next_snap - t)
        trial = ws.advance(dt_eff)
        diag = None
        if np.isfinite(trial).all():
            trial, clipped = ws.repair_monotone(trial)
            diag = ws.diagnostics(trial)
        pending = False
        if diag is None or not np.isfinite(diag[2]):
            dt *= 0.5
        elif diag[0] > 10.0 * trace.sup_u[-1] and diag[0] > spike_floor:
            trace.rejected_spike += 1
            dt *= 0.5
        else:
            pending = True
            if clipped:
                trace.clip_events += 1
            M = trial
            t += dt_eff
            trace.record(t, dt_eff, diag)
    if trace.verdict == VERDICT_BLOWUP:
        trace.blowup_time = t
    if pending:  # stopped at the threshold, before the landing check
        trace.blowup_xi = float(grid.nodes[1 + int(np.argmax(ws.density(M)[1:-1]))])
    if pending or trace.snapshots[-1][0] < t:  # unless the stop state is recorded
        trace.snapshots.append((t, MassProfile(grid, M, m)))
    trace._stop = _LoopState(config, dt, next_snap, pending)
    return trace


def verify_discrete_comparison(lower0: MassProfile, upper0: MassProfile,
                               T: float, config: SchemeConfig) -> ComparisonReport:
    """Step an ordered pair with simulate's steps; report the worst violation.

    simulate(replace(config, t_end=T), lower0) chooses the steps.  Both
    profiles then take each accepted step through the map the stepping loop
    applies (_Workspace.step, one workspace per profile), so the lower one
    retraces that run bit for bit.
    """
    if lower0.grid != upper0.grid:
        raise ValueError("profiles must share a grid")
    m = lower0.total_mass
    if upper0.total_mass != m:
        raise ValueError(f"profiles must share a mass, got {m:.6g} and "
                         f"{upper0.total_mass:.6g}")
    gap0 = upper0.values - lower0.values
    if gap0.min() < -1e-14 * m:
        raise ValueError(f"initial ordering violated by {-gap0.min():.3g}")
    run = simulate(replace(config, t_end=T), lower0)
    grid = lower0.grid
    ws_lo, ws_up = _Workspace(grid, m), _Workspace(grid, m)
    lo, up = lower0, upper0
    worst = 0.0
    for dt in run.dts[1:]:
        lo = MassProfile(grid, ws_lo.step(lo.values, dt), m)
        up = MassProfile(grid, ws_up.step(up.values, dt), m)
        worst = max(worst, float((lo.values - up.values).max(initial=0.0)))
    return ComparisonReport(worst, run.times[-1], len(run.dts) - 1)


def bound_gradient_v(trace: SimulationTrace) -> float:
    """Uniform |v_r| bound implied by the recorded sup M/xi diagnostics."""
    sup = max(trace.sup_m_over_xi)
    return (sup + trace.total_mass) / (2.0 * np.pi)
