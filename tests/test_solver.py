import copy
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemodisk import radial, solver
from chemodisk.barriers import SubBarrier, SuperBarrier
from chemodisk.radial import EIGHT_PI, Grid, MassProfile, preset_profile
from chemodisk.solver import (SchemeConfig, VERDICT_BLOWUP, VERDICT_COMPLETED,
                              VERDICT_STEP_FLOOR, cfl_limit, simulate, step,
                              verify_discrete_comparison)

M8 = EIGHT_PI


def _config(**kw):
    defaults = dict(t_end=1.0, snapshot_every=0.5)
    defaults.update(kw)
    return SchemeConfig(**defaults)


class TestSchemeConfig:
    def test_default_threshold(self):
        cfg = _config()
        assert cfg.threshold(np.pi) == pytest.approx(1e6)

    def test_explicit_threshold(self):
        cfg = _config(u_blowup_threshold=42.0)
        assert cfg.threshold(np.pi) == 42.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _config(cfl=0.0)
        with pytest.raises(ValueError):
            _config(dt0=1e-15)
        with pytest.raises(ValueError):
            _config(t_end=-1.0)
        with pytest.raises(ValueError):
            _config(u_blowup_threshold=-1.0)

    # dt_min is the stepping loop's time resolution: a cadence at or below
    # it cannot be landed
    @pytest.mark.parametrize("kw", [
        {"snapshot_every": 1e-12},
        {"snapshot_every": 1e-300},
        {"dt0": 1e-3, "dt_min": 1e-6, "snapshot_every": 1e-6},
    ])
    def test_refuses_a_cadence_at_or_below_dt_min(self, kw):
        with pytest.raises(ValueError, match="snapshot_every"):
            SchemeConfig(**kw)

    def test_accepts_a_cadence_above_dt_min(self):
        assert SchemeConfig(snapshot_every=2e-12).snapshot_every == 2e-12


class TestStep:
    def test_linear_profile_is_fixed(self):
        grid = Grid.regular(128)
        M = preset_profile("constant", 4.0 * np.pi, grid)
        out = step(M, 1e-3)
        assert np.abs(out.values - M.values).max() < 1e-12 * M.total_mass

    def test_boundary_values_exact(self):
        grid = Grid.regular(128)
        M = preset_profile("pks", M8, grid, lam=0.5)
        out = step(M, 1e-4)
        assert out.values[0] == 0.0
        assert out.values[-1] == M8

    def test_preserves_monotonicity(self):
        grid = Grid.regular(256, gamma=2.0)
        M = preset_profile("pks", M8, grid, lam=0.2)
        dt = 0.9 * cfl_limit(M)
        out = step(M, dt)
        assert np.diff(out.values).min() >= -1e-12 * M8

    def test_rejects_nonpositive_dt(self):
        grid = Grid.regular(64)
        M = preset_profile("constant", np.pi, grid)
        with pytest.raises(ValueError):
            step(M, 0.0)


class TestCfl:
    def test_positive_and_finite(self):
        grid = Grid.regular(256)
        M = preset_profile("pks", M8, grid, lam=0.5)
        lim = cfl_limit(M)
        assert 0.0 < lim < np.inf

    def test_infinite_for_linear(self):
        grid = Grid.regular(64)
        M = preset_profile("constant", np.pi, grid)
        assert cfl_limit(M) == np.inf

    def test_shrinks_with_concentration(self):
        grid = Grid.regular(256, gamma=2.0)
        mild = preset_profile("pks", M8, grid, lam=1.0)
        sharp = preset_profile("pks", M8, grid, lam=0.1)
        assert cfl_limit(sharp) < cfl_limit(mild)


class TestSimulate:
    def test_subcritical_completes(self):
        grid = Grid.regular(128)
        cfg = _config(t_end=2.0, snapshot_every=1.0)
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.5)
        trace = simulate(cfg, M0)
        assert trace.verdict == VERDICT_COMPLETED
        assert trace.times[-1] == pytest.approx(2.0)
        # relaxation toward the flat state
        assert trace.sup_u[-1] < trace.sup_u[0]

    def test_snapshot_times_exact(self):
        grid = Grid.regular(128)
        cfg = _config(t_end=1.0, snapshot_every=0.25)
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.5)
        trace = simulate(cfg, M0)
        times = [t for t, _ in trace.snapshots]
        assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)

    def test_final_snapshot_lands_on_t_end(self):
        # ten sums of 0.1 fall 1.1e-16 short of t_end = 1; that snapshot time
        # is t_end, so no sub-ulp step follows it and the final profile is kept
        grid = Grid.regular(256)
        M0 = preset_profile("pks", M8, grid, lam=0.5)
        trace = simulate(_config(t_end=1.0, snapshot_every=0.1), M0)
        assert trace.verdict == VERDICT_COMPLETED
        assert min(trace.dts[1:]) >= 1e-12
        assert trace.snapshots[-1][0] == trace.times[-1] == 1.0
        assert _replay(M0, trace).tobytes() == trace.snapshots[-1][1].values.tobytes()

    def test_a_snapshot_within_dt_min_is_reached_not_overshot(self):
        # the step before the snapshot at t = 0.4 ends less than dt_min
        # short of it: that is the snapshot, taken where the run is
        grid = Grid.regular(64, gamma=2.0)
        M0 = preset_profile("barrier", 6.0 * np.pi, grid, a=0.05)
        trace = simulate(_config(snapshot_every=0.1, dt_min=1e-4), M0)
        times = np.array([t for t, _ in trace.snapshots])
        due = 0.1 * np.arange(times.size)
        assert trace.verdict == VERDICT_COMPLETED and times.size == 11
        assert np.all(times <= due + 1e-12) and np.all(times > due - 1e-4)
        assert times[4] < 0.4

    def test_blowup_detected_supercritical(self):
        grid = Grid.regular(256, gamma=3.0)
        cfg = _config(t_end=10.0, snapshot_every=1.0,
                      u_blowup_threshold=1e5)
        M0 = preset_profile("barrier", 10.0 * np.pi, grid, a=0.01)
        trace = simulate(cfg, M0)
        assert trace.verdict == VERDICT_BLOWUP
        assert trace.blowup_time is not None and trace.blowup_time < 10.0
        assert trace.blowup_xi == grid.nodes[1]

    def test_mass_conserved(self):
        grid = Grid.regular(128)
        cfg = _config()
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.7)
        trace = simulate(cfg, M0)
        for _, prof in trace.snapshots:
            assert prof.values[-1] == pytest.approx(4.0 * np.pi)

    def test_deterministic(self):
        grid = Grid.regular(128)
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.5)
        a = simulate(_config(), M0)
        b = simulate(_config(), M0)
        assert a.times == b.times
        assert a.sup_u == b.sup_u
        assert a.energy == b.energy
        assert np.array_equal(a.snapshots[-1][1].values, b.snapshots[-1][1].values)

    def test_trace_record_rejects_time_reversal(self):
        trace = solver.SimulationTrace(total_mass=1.0)
        trace.record(0.0, 0.0, (1.0, 1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            trace.record(0.0, 0.0, (1.0, 1.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("diag", [(1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0, 0.0, 0.5)],
                             ids=["short", "long"])
    def test_trace_record_rejects_a_row_of_the_wrong_length(self, diag):
        trace = solver.SimulationTrace(total_mass=1.0)
        trace.record(0.0, 0.0, (1.0, 1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="a trace row has 7 values"):
            trace.record(1.0, 1.0, diag)
        assert [len(getattr(trace, name)) for name in trace.COLUMNS.values()] == [1] * 7

    def test_trace_columns_are_the_trace_lists_but_snapshots(self):
        # resume copies the COLUMNS lists and the snapshots, and no other list
        lists = {f.name for f in fields(solver.SimulationTrace) if f.default_factory is list}
        assert lists == {*solver.SimulationTrace.COLUMNS.values(), "snapshots"}


def test_spike_rejections_are_counted(monkeypatch):
    # the first trial comes out non-finite, the second spikes, then none fails
    advance, diagnostics = solver._Workspace.advance, solver._Workspace.diagnostics
    calls = {"advance": 0, "diagnostics": 0}

    def first_advance_nonfinite(self, dt):
        calls["advance"] += 1
        out = advance(self, dt)
        if calls["advance"] == 1:
            out[1] = np.nan
        return out

    def second_diagnostics_spike(self, M):
        calls["diagnostics"] += 1  # call 1 is the initial record
        diag = diagnostics(self, M)
        return (1e300,) + diag[1:] if calls["diagnostics"] == 2 else diag

    monkeypatch.setattr(solver._Workspace, "advance", first_advance_nonfinite)
    monkeypatch.setattr(solver._Workspace, "diagnostics", second_diagnostics_spike)
    grid = Grid.regular(64)
    trace = simulate(_config(t_end=0.1),
                     preset_profile("pks", 4.0 * np.pi, grid, lam=0.5))
    assert trace.verdict == VERDICT_COMPLETED
    assert calls["advance"] == len(trace.times) + 1  # two rejected trials
    assert trace.rejected_spike == 1


_RECORDS = ("times", "dts", "sup_u", "sup_m_over_xi", "energy", "dissipation",
            "second_moment")


def _assert_identical(a, b):
    """Every record, snapshot, verdict and count of two traces, and the loop
    state they stopped in, bit for bit."""
    for name in _RECORDS:
        assert (np.array(getattr(a, name)).tobytes()
                == np.array(getattr(b, name)).tobytes()), name
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    for (_, p), (_, q) in zip(a.snapshots, b.snapshots):
        assert p.values.tobytes() == q.values.tobytes()
    for name in ("verdict", "blowup_time", "blowup_xi", "clip_events",
                 "rejected_spike", "_stop"):
        assert getattr(a, name) == getattr(b, name), name


def _replay(M0, trace):
    """The profile reached by taking the run's accepted steps through step."""
    M = M0
    for dt in trace.dts[1:]:
        M = step(M, dt)
    return M.values


@pytest.mark.parametrize("grid,kind,m,param,kw", [
    (Grid.regular(128), "pks", 4.0 * np.pi, {"lam": 0.5}, {}),
    (Grid.regular(256, gamma=3.0), "barrier", 10.0 * np.pi, {"a": 0.01},
     {"t_end": 10.0, "u_blowup_threshold": 1e5}),
    # the stop step is cut short to land on the snapshot at t = 0.01988
    (Grid.regular(256, gamma=3.0), "barrier", 10.0 * np.pi, {"a": 0.01},
     {"snapshot_every": 0.01988, "u_blowup_threshold": 1e5}),
], ids=["completed", "blowup", "blowup-at-a-landing"])
def test_replaying_the_accepted_steps_reproduces_the_run(grid, kind, m, param, kw):
    # the invariant verify_discrete_comparison rests on
    M0 = preset_profile(kind, m, grid, **param)
    trace = simulate(_config(**kw), M0)
    assert trace.snapshots[-1][0] == trace.times[-1]
    assert _replay(M0, trace).tobytes() == trace.snapshots[-1][1].values.tobytes()


@pytest.mark.parametrize("grid,kind,m,param,kw,verdict", [
    (Grid.regular(128), "pks", 4.0 * np.pi, {"lam": 0.5}, {}, VERDICT_COMPLETED),
    # a tiny CFL factor on concentrated data drives dt under dt_min
    (Grid.regular(32), "pks", 4.0 * np.pi, {"lam": 0.3},
     {"cfl": 1e-3, "dt_min": 5e-4}, VERDICT_STEP_FLOOR),
    (Grid.regular(256, gamma=3.0), "barrier", 10.0 * np.pi, {"a": 0.01},
     {"t_end": 10.0, "u_blowup_threshold": 1e5}, VERDICT_BLOWUP),
], ids=["completed", "step_floor", "threshold"])
def test_stop_fields_follow_the_verdict(grid, kind, m, param, kw, verdict):
    # blowup_time is the stop time of a blowup and None for any other
    # verdict; blowup_xi is set at a threshold stop only
    trace = simulate(_config(**kw), preset_profile(kind, m, grid, **param))
    assert trace.verdict == verdict
    blowup = verdict == VERDICT_BLOWUP
    assert trace.blowup_time == (trace.times[-1] if blowup else None)
    assert (trace.blowup_xi is None) == (not blowup)
    assert trace.snapshots[-1][0] == trace.times[-1]


def _dipped(M, depth):
    """M with node 2 lowered by depth below node 1."""
    out = M.copy()
    out[2] = out[1] - depth
    return out


class TestRepairMonotone:
    # the implicit step keeps monotone profiles monotone (module docstring),
    # so the repair guards rounding only; these tests dip a profile by hand
    M0 = preset_profile("pks", 4.0 * np.pi, Grid.regular(64), lam=0.5)

    def test_clips_a_dip_above_noise(self):
        m = self.M0.total_mass
        dipped = _dipped(self.M0.values, 1e-9 * m)
        out, clipped = solver._Workspace(self.M0.grid, m).repair_monotone(dipped)
        assert clipped
        assert out.tobytes() == radial._monotone(dipped, m).tobytes()

    def test_keeps_a_dip_at_noise_level(self):
        m = self.M0.total_mass
        dipped = _dipped(self.M0.values, 1e-14 * m)
        out, clipped = solver._Workspace(self.M0.grid, m).repair_monotone(dipped)
        assert out is dipped and not clipped

    def test_a_clipped_step_is_counted(self, monkeypatch):
        advance = solver._Workspace.advance
        calls = []

        def first_advance_dips(self, dt):
            calls.append(dt)
            out = advance(self, dt)
            return _dipped(out, 1e-9 * self.m) if len(calls) == 1 else out

        monkeypatch.setattr(solver._Workspace, "advance", first_advance_dips)
        trace = simulate(_config(t_end=0.1, snapshot_every=0.05), self.M0)
        assert trace.verdict == VERDICT_COMPLETED and trace.clip_events == 1
        for _, prof in trace.snapshots:
            assert np.diff(prof.values).min() >= 0.0


def test_a_blowup_at_the_step_floor_has_a_time_but_no_peak_node(monkeypatch):
    # every trial fails once sup u has grown tenfold, so dt falls under
    # dt_min without a threshold crossing and the floor verdict is blowup
    grid = Grid.regular(256, gamma=3.0)
    M0 = preset_profile("barrier", 10.0 * np.pi, grid, a=0.01)
    u0 = solver._Workspace(grid, M0.total_mass).density(M0.values).max()
    advance = solver._Workspace.advance

    def fail_after_tenfold_growth(self, dt):
        out = advance(self, dt)
        if self.density(self._M).max() > 10.0 * u0:
            out[1] = np.nan
        return out

    monkeypatch.setattr(solver._Workspace, "advance", fail_after_tenfold_growth)
    trace = simulate(_config(t_end=10.0, u_blowup_threshold=1e5), M0)
    assert trace.verdict == VERDICT_BLOWUP and max(trace.sup_u) < 1e5
    assert trace.blowup_time == trace.times[-1] == trace.snapshots[-1][0]
    assert trace.blowup_xi is None


def _resume_and_fresh(cfg, M0):
    """(first run, its continuation, a fresh run) at double the threshold."""
    first = simulate(cfg, M0)
    doubled = replace(cfg, u_blowup_threshold=2.0 * cfg.threshold(M0.total_mass))
    return first, solver.resume(first, doubled.u_blowup_threshold), simulate(doubled, M0)


class TestResume:
    # the blowup scenario's fine run: gamma=3, n=1024, threshold 2e5 m/pi
    @pytest.mark.parametrize("kind,m,param,n", [
        ("barrier", 10.0 * np.pi, {"a": 0.0099}, 1024),
        ("barrier", 10.0 * np.pi, {"a": 0.01}, 1024),
        ("barrier", 10.0 * np.pi, {"a": 0.0101}, 1024),
        ("pks", 12.0 * np.pi, {"lam": 0.05}, 512),
    ], ids=["a0.0099", "a0.01", "a0.0101", "pks-12pi"])
    def test_equals_a_fresh_run_at_the_doubled_threshold(self, kind, m, param, n):
        grid = Grid.regular(n, gamma=3.0)
        cfg = SchemeConfig(u_blowup_threshold=2e5 * m / np.pi)
        first, resumed, fresh = _resume_and_fresh(
            cfg, preset_profile(kind, m, grid, **param))
        assert first.rejected_spike == 0  # the condition of exactness
        assert first.verdict == resumed.verdict == VERDICT_BLOWUP
        assert len(resumed.times) > len(first.times)
        _assert_identical(resumed, fresh)

    @pytest.mark.parametrize("verdict,grid,kind,m,param,kw", [
        (VERDICT_BLOWUP, Grid.regular(256, gamma=3.0), "barrier", 10.0 * np.pi,
         {"a": 0.01}, {"t_end": 10.0, "u_blowup_threshold": 1e5}),
        # the stop step is cut short to land on the snapshot at t = 0.01988,
        # so the step the controller proposes next is not dts[-1]
        (VERDICT_BLOWUP, Grid.regular(256, gamma=3.0), "barrier", 10.0 * np.pi,
         {"a": 0.01}, {"snapshot_every": 0.01988, "u_blowup_threshold": 1e5}),
        (VERDICT_COMPLETED, Grid.regular(128), "pks", 4.0 * np.pi,
         {"lam": 0.5}, {}),
        # the first step already falls under dt_min
        (VERDICT_STEP_FLOOR, Grid.regular(64, gamma=3.0), "pks", M8,
         {"lam": 0.05}, {"dt0": 0.1, "dt_min": 0.01}),
    ], ids=["blowup", "blowup-at-a-landing", "completed", "step_floor"])
    def test_each_verdict(self, verdict, grid, kind, m, param, kw):
        first, resumed, fresh = _resume_and_fresh(
            _config(**kw), preset_profile(kind, m, grid, **param))
        assert first.verdict == resumed.verdict == verdict
        _assert_identical(resumed, fresh)

    def test_step_floor_after_rejected_trials(self, monkeypatch):
        # every trial after the first step is non-finite, so dt is halved
        # under dt_min; resume must stop there again, not grow dt and retry
        grid = Grid.regular(64)
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.5)
        advance = solver._Workspace.advance

        def fail_after_the_first_step(self, dt):
            out = advance(self, dt)
            if not np.array_equal(self._M, M0.values):
                out[1] = np.nan
            return out

        monkeypatch.setattr(solver._Workspace, "advance", fail_after_the_first_step)
        first, resumed, fresh = _resume_and_fresh(_config(), M0)
        assert first.verdict == VERDICT_STEP_FLOOR
        assert len(first.times) == 2  # only the first step was accepted
        _assert_identical(resumed, fresh)

    def test_step_floor_after_tenfold_growth(self, monkeypatch):
        # every trial fails once sup u has grown tenfold, so dt is halved
        # under dt_min and the floor verdict is blowup without a threshold
        # crossing; resume must stop at the floor again, not step on
        grid = Grid.regular(256, gamma=3.0)
        M0 = preset_profile("barrier", 10.0 * np.pi, grid, a=0.01)
        u0 = solver._Workspace(grid, M0.total_mass).density(M0.values).max()
        advance = solver._Workspace.advance

        def fail_after_tenfold_growth(self, dt):
            out = advance(self, dt)
            if self.density(self._M).max() > 10.0 * u0:
                out[1] = np.nan
            return out

        monkeypatch.setattr(solver._Workspace, "advance", fail_after_tenfold_growth)
        first, resumed, fresh = _resume_and_fresh(
            _config(t_end=10.0, u_blowup_threshold=1e5), M0)
        assert first.verdict == VERDICT_BLOWUP
        assert first.blowup_xi is None and max(first.sup_u) < 1e5
        _assert_identical(resumed, fresh)

    def test_equals_a_fresh_run_after_a_spike_rejection(self, monkeypatch):
        # the first trial from M0 reports sup u = 1.2e4, a tenfold jump that
        # lies between a spike floor of threshold * 1e-3 at 7e6 and at 1.4e7
        grid = Grid.regular(256, gamma=3.0)
        M0 = preset_profile("barrier", 10.0 * np.pi, grid, a=0.01)
        diagnostics = solver._Workspace.diagnostics

        def first_trial_from_m0_spikes(self, M):
            diag = diagnostics(self, M)
            lagged = getattr(self, "_M", None)  # unset for the initial record
            if (lagged is None or getattr(self, "spiked", False)
                    or not np.array_equal(lagged, M0.values)):
                return diag
            self.spiked = True
            return (1.2e4,) + diag[1:]

        monkeypatch.setattr(solver._Workspace, "diagnostics", first_trial_from_m0_spikes)
        first, resumed, fresh = _resume_and_fresh(
            _config(t_end=10.0, u_blowup_threshold=7e6), M0)
        assert first.rejected_spike == fresh.rejected_spike == 1
        assert first.verdict == resumed.verdict == VERDICT_BLOWUP
        assert len(resumed.times) > len(first.times)
        _assert_identical(resumed, fresh)

    def test_leaves_the_earlier_trace_unchanged(self):
        grid = Grid.regular(256, gamma=3.0)
        cfg = _config(t_end=10.0, u_blowup_threshold=1e5)
        trace = simulate(cfg, preset_profile("barrier", 10.0 * np.pi, grid, a=0.01))
        before = copy.deepcopy(trace)
        arrays = [p.values for _, p in trace.snapshots]
        solver.resume(trace, 2e5)
        _assert_identical(trace, before)
        assert len(trace.snapshots) == len(before.snapshots)
        assert all(p.values is a for (_, p), a in zip(trace.snapshots, arrays))

    def test_steps_on_the_grid_of_the_stopped_run(self):
        # the same Grid object, so its cached stencil is reused
        grid = Grid.regular(256, gamma=3.0)
        M0 = preset_profile("barrier", 10.0 * np.pi, grid, a=0.01)
        first, resumed, fresh = _resume_and_fresh(
            _config(t_end=10.0, u_blowup_threshold=1e5), M0)
        assert len(resumed.times) > len(first.times)
        assert resumed.snapshots[-1][1].grid is first.snapshots[0][1].grid
        _assert_identical(resumed, fresh)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf])
    def test_refuses_a_non_finite_threshold(self, threshold):
        grid = Grid.regular(128)
        trace = simulate(_config(u_blowup_threshold=1e5),
                         preset_profile("pks", 4.0 * np.pi, grid, lam=0.5))
        with pytest.raises(ValueError, match="finite"):
            solver.resume(trace, threshold)

    def test_refuses_a_trace_that_no_run_returned(self):
        with pytest.raises(ValueError, match="only a trace returned by simulate "
                                             "or resume can be resumed"):
            solver.resume(solver.SimulationTrace(total_mass=1.0), 2.0)

    def test_refuses_a_lower_threshold(self):
        # a lower threshold could have stopped the run earlier
        grid = Grid.regular(128)
        cfg = _config(u_blowup_threshold=1e5)
        trace = simulate(cfg, preset_profile("pks", 4.0 * np.pi, grid, lam=0.5))
        with pytest.raises(ValueError, match="threshold"):
            solver.resume(trace, 0.5e5)

    def test_stops_again_below_the_peak_of_the_stop(self):
        grid = Grid.regular(256, gamma=3.0)
        cfg = _config(t_end=10.0, u_blowup_threshold=1e5)
        M0 = preset_profile("barrier", 10.0 * np.pi, grid, a=0.01)
        first = simulate(cfg, M0)
        assert first.sup_u[-1] > 1e5
        between = replace(cfg, u_blowup_threshold=(1e5 + first.sup_u[-1]) / 2.0)
        resumed = solver.resume(first, between.u_blowup_threshold)
        assert resumed.times == first.times
        _assert_identical(resumed, simulate(between, M0))


class TestComparison:
    def test_barrier_pair_stays_ordered(self):
        grid = Grid.regular(256)
        m = 4.0 * np.pi
        lo = SubBarrier(1.0, m).profile(grid)
        up = SuperBarrier(0.5, m).profile(grid)
        rep = verify_discrete_comparison(lo, up, 0.5, _config())
        assert rep.max_violation <= 1e-10 * m
        assert rep.steps > 0

    def test_identical_pair_trivial(self):
        grid = Grid.regular(128)
        M = preset_profile("pks", M8, grid, lam=0.5)
        rep = verify_discrete_comparison(M, M, 0.2, _config())
        assert rep.max_violation == 0.0

    def test_rejects_unordered_initial_data(self):
        grid = Grid.regular(128)
        m = 4.0 * np.pi
        lo = SuperBarrier(0.5, m).profile(grid)
        up = SubBarrier(1.0, m).profile(grid)
        with pytest.raises(ValueError):
            verify_discrete_comparison(lo, up, 0.1, _config())

    def test_rejects_mismatched_grids(self):
        m = 4.0 * np.pi
        lo = SubBarrier(1.0, m).profile(Grid.regular(128))
        up = SuperBarrier(0.5, m).profile(Grid.regular(64))
        with pytest.raises(ValueError):
            verify_discrete_comparison(lo, up, 0.1, _config())

    def test_rejects_mismatched_masses(self):
        # ordered as arrays, but two different equations: 4pi*xi below 8pi*xi
        grid = Grid.regular(64)
        lo = preset_profile("constant", 4.0 * np.pi, grid)
        up = preset_profile("constant", M8, grid)
        with pytest.raises(ValueError, match="mass"):
            verify_discrete_comparison(lo, up, 0.1, _config())


@pytest.mark.parametrize("grid,lo,up,T,kw,verdict", [
    (Grid.regular(256), SubBarrier(1.0, 4.0 * np.pi), SuperBarrier(0.5, 4.0 * np.pi),
     0.5, {}, VERDICT_COMPLETED),
    # a concentrated pair whose lower run stops at the threshold before T
    (Grid.regular(256, gamma=3.0), SuperBarrier(0.01, 10.0 * np.pi),
     SuperBarrier(0.005, 10.0 * np.pi), 10.0, {"u_blowup_threshold": 1e5},
     VERDICT_BLOWUP),
], ids=["completed", "blowup"])
def test_comparison_takes_the_steps_of_simulate(grid, lo, up, T, kw, verdict):
    lo, up = lo.profile(grid), up.profile(grid)
    cfg = _config(**kw)
    rep = verify_discrete_comparison(lo, up, T, cfg)
    run = simulate(replace(cfg, t_end=T), lo)
    assert run.verdict == verdict
    assert (rep.steps, rep.t_final) == (len(run.times) - 1, run.times[-1])
    assert rep.max_violation <= 1e-10 * lo.total_mass


class TestBarrierConfinement:
    def test_solution_stays_under_dominating_barrier(self):
        grid = Grid.regular(256, gamma=2.0)
        M0 = preset_profile("pks", M8, grid, lam=0.5)
        bar = SuperBarrier(0.2, M8)  # strictly above the lam^2 = 0.25 family member
        assert (bar.value(grid.nodes) >= M0.values).all()
        cfg = _config(t_end=0.5, snapshot_every=0.1)
        trace = simulate(cfg, M0)
        for t, prof in trace.snapshots:
            overshoot = (prof.values - bar.value(grid.nodes)).max()
            assert overshoot <= 1e-10 * M8


class TestGradientBound:
    def test_bound_dominates_slope(self):
        grid = Grid.regular(256)
        M0 = preset_profile("pks", M8, grid, lam=0.4)
        trace = simulate(_config(), M0)
        bound = solver.bound_gradient_v(trace)
        for _, prof in trace.snapshots:
            s = radial.potential_slope_from_mass(prof)
            assert np.abs(s.values).max() <= bound + 1e-9


@pytest.mark.parametrize("key", ["dt0", "t_end", "snapshot_every",
                                 "u_blowup_threshold"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_scheme_config_rejects_non_finite(key, value):
    with pytest.raises(ValueError):
        _config(**{key: value})


grids = st.builds(Grid.regular, st.integers(16, 512), st.floats(1.0, 3.0))
# preset_profile refuses subnormal masses: its closed forms round to a
# decreasing profile where the monotonicity slack _MONO_TOL * m underflows
masses = st.floats(0.0, 16.0 * np.pi, exclude_min=True, allow_subnormal=False)
presets = st.one_of(
    st.just(("constant", {})),
    st.floats(-2.5, 1.0).map(lambda e: ("pks", {"lam": 10.0 ** e})),
    st.floats(-4.0, 2.0).map(lambda e: ("barrier", {"a": 10.0 ** e})),
)
step_lengths = st.floats(-8.0, 1.0).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(grids, masses, presets, step_lengths)
def test_step_keeps_endpoints_and_order_of_nodes(grid, m, preset, dt):
    kind, params = preset
    out = step(preset_profile(kind, m, grid, **params), dt).values
    assert out[0] == 0.0
    assert out[-1] == m
    assert np.diff(out).min() >= 0.0


@settings(max_examples=100, deadline=None)
@given(grids, masses, presets, step_lengths)
def test_the_implicit_step_alone_keeps_profiles_nondecreasing(grid, m, preset, dt):
    # the monotone image of the module docstring, before any repair
    kind, params = preset
    M = preset_profile(kind, m, grid, **params).values
    ws = solver._Workspace(grid, m)
    ws.lag(M)
    assert np.diff(ws.advance(dt)).min() >= 0.0


@settings(max_examples=100, deadline=None)
@given(grids, masses, presets, presets, step_lengths)
def test_step_preserves_the_order_of_two_profiles(grid, m, a, b, dt):
    # Two near-identical profiles can swap by the roundoff of the implicit
    # solve, whose condition number grows like dt / h^2: in 3,000 seeded
    # draws of one preset at two parameters a relative 1e-15 to 1e-6 apart,
    # with dt in [1e-3, 10], supercritical concentrated pairs swapped by up
    # to 3.1e-9 m.  Profiles further apart than the slack keep their order.
    A, B = (preset_profile(kind, m, grid, **params).values for kind, params in (a, b))
    lo = step(MassProfile(grid, np.minimum(A, B), m), dt).values
    up = step(MassProfile(grid, np.maximum(A, B), m), dt).values
    assert np.all(lo <= up + 1e-8 * m)


@settings(max_examples=100, deadline=None)
@given(st.integers(16, 128), st.floats(1.0, 3.0), st.floats(1e-3, 16.0 * np.pi),
       presets, presets, st.floats(-3.0, -1.0).map(lambda e: 10.0 ** e))
def test_simulate_preserves_the_order_of_two_profiles(n, gamma, m, a, b, T):
    # the one-step property over whole runs: both profiles take every step
    # the lower run takes, up to the same roundoff slack
    grid = Grid.regular(n, gamma)
    A, B = (preset_profile(kind, m, grid, **params).values for kind, params in (a, b))
    lo = MassProfile(grid, np.minimum(A, B), m)
    up = MassProfile(grid, np.maximum(A, B), m)
    rep = verify_discrete_comparison(lo, up, T, SchemeConfig(t_end=T, snapshot_every=T))
    assert rep.max_violation <= 1e-8 * m
