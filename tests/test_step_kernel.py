"""The buffered per-step kernel (solver._Workspace) against the unbuffered
one it replaced, bit for bit, and the isolation of its buffers."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgtsv

from chemodisk import radial, solver
from chemodisk.barriers import SubBarrier, SuperBarrier
from chemodisk.energy import _LOG_FLOOR
from chemodisk.radial import Grid, preset_profile
from chemodisk.solver import SchemeConfig, simulate


class _ReferenceD1:
    """FirstDerivative as it was: a new array per operation and NumPy-scalar
    boundary rows."""

    def __init__(self, x):
        hm, hp = x[1:-1] - x[:-2], x[2:] - x[1:-1]
        self.lo = -hp / (hm * (hm + hp))
        self.mid = (hp - hm) / (hm * hp)
        self.hi = hm / (hp * (hm + hp))
        h0, h1 = x[1] - x[0], x[2] - x[1]
        self.left = (-(2 * h0 + h1) / (h0 * (h0 + h1)), (h0 + h1) / (h0 * h1),
                     -h0 / (h1 * (h0 + h1)))
        hN, hM = x[-1] - x[-2], x[-2] - x[-3]
        self.right = ((2 * hN + hM) / (hN * (hN + hM)), -(hN + hM) / (hN * hM),
                      hN / (hM * (hN + hM)))

    def __call__(self, f):
        left, right = self.left, self.right
        out = np.empty_like(f)
        out[1:-1] = self.lo * f[:-2] + self.mid * f[1:-1] + self.hi * f[2:]
        out[0] = left[0] * f[0] + left[1] * f[1] + left[2] * f[2]
        out[-1] = right[0] * f[-1] + right[1] * f[-2] + right[2] * f[-3]
        return out


class ReferenceWorkspace:
    """The stepping kernel before its buffers: lag, advance, repair_monotone
    and diagnostics with a new array per NumPy operation, np.diff, M - m xi
    computed wherever it is used, and dgtsv copying its bands."""

    def __init__(self, grid: Grid, m: float):
        self.grid = grid
        self.m = float(m)
        self.xi = grid.nodes
        self.r = grid.radii
        self.st = grid.stencil
        self._mxi = self.m * self.xi
        self._op = radial.FittedOperator(self.st, 4.0 * self.xi[1:-1])  # its factors only
        self._two_over_hbar = 4.0 / (self.st.hm + self.st.hp)
        n = grid.n
        self._dl = np.zeros(n)
        self._d = np.ones(n + 1)
        self._du = np.zeros(n)
        self._log_floor = _LOG_FLOOR * self.m / np.pi
        self._vr_scale = np.zeros_like(self.r)
        self._vr_scale[1:] = -1.0 / (2.0 * np.pi * self.r[1:])
        self._d1_xi, self._d1_r = _ReferenceD1(self.xi), _ReferenceD1(self.r)

    def weights(self, c):
        op = self._op
        c = c + 1e-300
        x = c * op._neg_kp
        y = c * op._km
        lam = c * op._neg_inv_a
        with np.errstate(over="ignore"):
            bx = x / np.expm1(x)
            by = y / np.expm1(y)
        series = op._hbar + lam * (op._e2 - lam * lam * op._e4)
        H = np.where(np.abs(c) < op._c_series, series, (by - bx) / lam)
        return op._am * by / H, op._ap * bx / H

    def density(self, M):
        u = self._d1_xi(M) / np.pi
        np.maximum(u, 0.0, out=u)
        return u

    def lag(self, M) -> float:
        c = (M[1:-1] - self._mxi[1:-1]) / np.pi
        self._M = M
        wl, wr = self._wl, self._wr = self.weights(c)
        dm = M[1:-1] - M[:-2]
        dp = M[2:] - M[1:-1]
        rate2 = (np.abs(c * (wr * dp - wl * dm)) * self._two_over_hbar
                 / (dp + dm + 1e-300))
        peak = float(rate2.max())
        return np.inf if peak == 0.0 else 1.0 / np.sqrt(peak)

    def advance(self, dt):
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
        worst = float(np.diff(M).min(initial=0.0))
        if worst >= -solver._MONO_CLIP_TOL * self.m:
            return M, False
        return radial._monotone(M, self.m), True

    def step(self, M, dt):
        self.lag(M)
        return self.repair_monotone(self.advance(dt))[0]

    def diagnostics(self, M):
        m = self.m
        w_xi = self.st.w_xi
        u = self.density(M)
        s = (M - self._mxi) * self._vr_scale
        v = np.empty_like(s)
        v[0] = 0.0
        np.cumsum(0.5 * np.diff(self.r) * (s[1:] + s[:-1]), out=v[1:])
        v -= w_xi @ v
        lnu = np.log(np.maximum(u, self._log_floor))
        f = u * lnu - 0.5 * u * v
        F = np.pi * (w_xi @ f)
        gp = self._d1_r(lnu - v)
        D = max(np.pi * (w_xi @ (u * gp * gp)), 0.0)
        sup_u = float(u.max())
        sup_mxi = float(np.max(M[1:] / self.xi[1:]))
        secmom = m - float(w_xi @ M)
        return sup_u, sup_mxi, float(F), float(D), secmom


def assert_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


masses = st.floats(0.0, 16.0 * np.pi, exclude_min=True, allow_subnormal=False)
presets = st.one_of(
    st.just(("constant", {})),
    st.floats(-2.5, 1.0).map(lambda e: ("pks", {"lam": 10.0 ** e})),
    st.floats(-4.0, 2.0).map(lambda e: ("barrier", {"a": 10.0 ** e})),
)
step_lengths = st.floats(-8.0, 1.0).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(st.integers(16, 2048), st.floats(1.0, 3.0), masses, presets, step_lengths)
def test_each_layer_matches_the_reference_bitwise(n, gamma, m, preset, dt):
    # in the stepping loop's order: the record of M, its lag, a trial, the
    # trial's repair and record, then the lag of the trial, which reuses
    # diff(M) and M - m xi from them, and a trial from it
    grid = Grid.regular(n, gamma)
    kind, params = preset
    M = preset_profile(kind, m, grid, **params).values
    ws, ref = solver._Workspace(grid, m), ReferenceWorkspace(grid, m)
    assert_bits(ws.diagnostics(M), ref.diagnostics(M))
    want = M
    for _ in range(2):
        assert_bits(ws.lag(M), ref.lag(want))
        assert_bits(ws._wl, ref._wl)
        assert_bits(ws._wr, ref._wr)
        trial, want = ws.advance(dt), ref.advance(dt)
        assert_bits(trial, want)
        (trial, clipped), (want, want_clipped) = (ws.repair_monotone(trial),
                                                  ref.repair_monotone(want))
        assert clipped == want_clipped
        assert_bits(trial, want)
        assert_bits(ws.diagnostics(trial), ref.diagnostics(want))
        M = trial


def test_a_retried_trial_does_not_reuse_the_rejected_ones_intermediates():
    # the retry is written into the rejected trial's buffer, so the lag of
    # the retry must not reuse the diff(M) and M - m xi of the rejected one
    grid = Grid.regular(256, 3.0)
    M = preset_profile("barrier", 10.0 * np.pi, grid, a=0.01).values
    ws, ref = solver._Workspace(grid, 10.0 * np.pi), ReferenceWorkspace(grid, 10.0 * np.pi)
    dt = ws.lag(M)
    ref.lag(M)
    rejected = ws.advance(dt)
    ws.repair_monotone(rejected)
    ws.diagnostics(rejected)
    retry = ws.advance(0.5 * dt)
    want = ref.advance(0.5 * dt)
    assert_bits(retry, want)
    assert_bits(ws.lag(retry), ref.lag(want))
    assert_bits(ws._wl, ref._wl)


def _dipped(M, depth):
    """M with node 2 lowered by depth below node 1."""
    out = M.copy()
    out[2] = out[1] - depth
    return out


def forced(base, nonfinite=(), spike=(), dip=()):
    """base with forced trials: the advance calls numbered in nonfinite come
    out non-finite, those in dip dip above noise (so they are clipped), and
    the diagnostics calls numbered in spike report a spike of sup u (call 1
    is the initial record)."""

    class Forced(base):
        def __init__(self, grid, m):
            super().__init__(grid, m)
            self.calls = {"advance": 0, "diagnostics": 0}

        def advance(self, dt):
            out = super().advance(dt)
            self.calls["advance"] += 1
            if self.calls["advance"] in nonfinite:
                out[1] = np.nan
            if self.calls["advance"] in dip:
                out = _dipped(out, 1e-9 * self.m)
            return out

        def diagnostics(self, M):
            diag = super().diagnostics(M)
            self.calls["diagnostics"] += 1
            return (1e300,) + diag[1:] if self.calls["diagnostics"] in spike else diag

    return Forced


def _assert_same_run(a, b):
    """Every record, snapshot, verdict, count and stop state, bit for bit."""
    for name in solver.SimulationTrace.COLUMNS.values():
        assert_bits(getattr(a, name), getattr(b, name))
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    for (_, p), (_, q) in zip(a.snapshots, b.snapshots):
        assert_bits(p.values, q.values)
    for name in ("verdict", "blowup_time", "blowup_xi", "clip_events",
                 "rejected_spike", "_stop"):
        assert getattr(a, name) == getattr(b, name), name


FORCINGS = {
    "non-finite": {"nonfinite": {1, 4}},
    "spike": {"spike": {2, 5}},
    "clip": {"dip": {3, 6}},
    # a clipped trial rejected as a spike, then a non-finite retry
    "all": {"dip": {2}, "spike": {3}, "nonfinite": {3, 7}},
}
RUNS = {
    "completed": (Grid.regular(128), "pks", 4.0 * np.pi, {"lam": 0.5},
                  SchemeConfig(t_end=0.2, snapshot_every=0.1)),
    "blowup": (Grid.regular(256, gamma=3.0), "barrier", 10.0 * np.pi, {"a": 0.01},
               SchemeConfig(t_end=10.0, u_blowup_threshold=1e5)),
}


@pytest.mark.parametrize("forcing", FORCINGS)
@pytest.mark.parametrize("run", RUNS)
def test_a_forced_run_matches_the_reference_run_bitwise(monkeypatch, run, forcing):
    grid, kind, m, params, cfg = RUNS[run]
    M0 = preset_profile(kind, m, grid, **params)
    traces = []
    for base in (solver._Workspace, ReferenceWorkspace):
        monkeypatch.setattr(solver, "_Workspace", forced(base, **FORCINGS[forcing]))
        trace = simulate(cfg, M0)
        traces += [trace, solver.resume(trace, 2.0 * cfg.threshold(m))]
    assert traces[0].clip_events + traces[0].rejected_spike > 0 or forcing == "non-finite"
    _assert_same_run(traces[0], traces[2])
    _assert_same_run(traces[1], traces[3])


def test_the_comparison_matches_the_reference_with_two_workspaces(monkeypatch):
    # two workspaces stepping in turn on one grid share no buffer
    grid = Grid.regular(256)
    lo, up = SubBarrier(1.0, 4.0 * np.pi).profile(grid), SuperBarrier(0.5, 4.0 * np.pi).profile(grid)
    cfg = SchemeConfig(t_end=1.0, snapshot_every=0.5)
    got = solver.verify_discrete_comparison(lo, up, 0.5, cfg)
    monkeypatch.setattr(solver, "_Workspace", ReferenceWorkspace)
    want = solver.verify_discrete_comparison(lo, up, 0.5, cfg)
    assert got == want
    assert got.steps > 0 and got.max_violation <= 1e-10 * lo.total_mass


def _buffers(ws):
    """Every writeable array a workspace holds, its operator's included."""
    found = []
    for value in [*vars(ws).values(), *vars(ws._op).values()]:
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray) and a.flags.writeable:
                found.append(a)
    return found


@pytest.mark.parametrize("run", RUNS)
def test_nothing_a_run_returns_is_a_view_of_a_buffer(monkeypatch, run):
    grid, kind, m, params, cfg = RUNS[run]
    made = []

    class Recorded(solver._Workspace):
        def __init__(self, grid, m):
            super().__init__(grid, m)
            made.append(self)

    monkeypatch.setattr(solver, "_Workspace", Recorded)
    first = simulate(cfg, preset_profile(kind, m, grid, **params))
    resumed = solver.resume(first, 2.0 * cfg.threshold(m))
    assert len(made) == 2
    buffers = [a for ws in made for a in _buffers(ws)]
    assert len(buffers) > 20
    for trace in (first, resumed):
        for _, prof in trace.snapshots:
            assert not any(np.shares_memory(prof.values, a) for a in buffers)
        for name in solver.SimulationTrace.COLUMNS.values():
            assert all(type(value) in (float, np.float64) for value in getattr(trace, name))
    before = [copy.deepcopy(trace) for trace in (first, resumed)]
    for a in buffers:
        a.fill(np.nan)
    _assert_same_run(first, before[0])
    _assert_same_run(resumed, before[1])

