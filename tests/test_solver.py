import numpy as np
import pytest

from chemodisk import radial, solver
from chemodisk.barriers import SubBarrier, SuperBarrier
from chemodisk.radial import EIGHT_PI, Grid, MassProfile, preset_profile
from chemodisk.solver import (SchemeConfig, VERDICT_BLOWUP, VERDICT_COMPLETED,
                              cfl_limit, simulate, step,
                              verify_discrete_comparison)

M8 = EIGHT_PI


def _config(grid, **kw):
    defaults = dict(grid=grid, t_end=1.0, snapshot_every=0.5)
    defaults.update(kw)
    return SchemeConfig(**defaults)


class TestSchemeConfig:
    def test_default_threshold(self):
        cfg = _config(Grid.regular(64))
        assert cfg.threshold(np.pi) == pytest.approx(1e6)

    def test_explicit_threshold(self):
        cfg = _config(Grid.regular(64), u_blowup_threshold=42.0)
        assert cfg.threshold(np.pi) == 42.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _config(Grid.regular(64), cfl=0.0)
        with pytest.raises(ValueError):
            _config(Grid.regular(64), dt0=1e-15)
        with pytest.raises(ValueError):
            _config(Grid.regular(64), t_end=-1.0)
        with pytest.raises(ValueError):
            _config(Grid.regular(64), u_blowup_threshold=-1.0)


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
        cfg = _config(grid, t_end=2.0, snapshot_every=1.0)
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.5)
        trace = simulate(cfg, M0)
        assert trace.verdict == VERDICT_COMPLETED
        assert trace.times[-1] == pytest.approx(2.0)
        # relaxation toward the flat state
        assert trace.sup_u[-1] < trace.sup_u[0]

    def test_snapshot_times_exact(self):
        grid = Grid.regular(128)
        cfg = _config(grid, t_end=1.0, snapshot_every=0.25)
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.5)
        trace = simulate(cfg, M0)
        times = [t for t, _ in trace.snapshots]
        assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)

    def test_blowup_detected_supercritical(self):
        grid = Grid.regular(256, gamma=3.0)
        cfg = _config(grid, t_end=10.0, snapshot_every=1.0,
                      u_blowup_threshold=1e5)
        M0 = preset_profile("barrier", 10.0 * np.pi, grid, a=0.01)
        trace = simulate(cfg, M0)
        assert trace.verdict == VERDICT_BLOWUP
        assert trace.blowup_time is not None and trace.blowup_time < 10.0
        assert trace.blowup_xi == grid.nodes[1]

    def test_mass_conserved(self):
        grid = Grid.regular(128)
        cfg = _config(grid)
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.7)
        trace = simulate(cfg, M0)
        for _, prof in trace.snapshots:
            assert prof.values[-1] == pytest.approx(4.0 * np.pi)

    def test_deterministic(self):
        grid = Grid.regular(128)
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.5)
        a = simulate(_config(grid), M0)
        b = simulate(_config(grid), M0)
        assert a.times == b.times
        assert a.sup_u == b.sup_u
        assert a.energy == b.energy
        assert np.array_equal(a.snapshots[-1][1].values, b.snapshots[-1][1].values)

    def test_trace_record_rejects_time_reversal(self):
        trace = solver.SimulationTrace(total_mass=1.0)
        trace.record(0.0, 0.0, (1.0, 1.0, 0.0, 0.0, 0.0, 0.5))
        with pytest.raises(ValueError):
            trace.record(0.0, 0.0, (1.0, 1.0, 0.0, 0.0, 0.0, 0.5))


class TestComparison:
    def test_barrier_pair_stays_ordered(self):
        grid = Grid.regular(256)
        m = 4.0 * np.pi
        lo = SubBarrier(1.0, m).profile(grid)
        up = SuperBarrier(0.5, m).profile(grid)
        rep = verify_discrete_comparison(lo, up, m, 0.5, _config(grid))
        assert rep.max_violation <= 1e-10 * m
        assert rep.steps > 0

    def test_identical_pair_trivial(self):
        grid = Grid.regular(128)
        M = preset_profile("pks", M8, grid, lam=0.5)
        rep = verify_discrete_comparison(M, M, M8, 0.2, _config(grid))
        assert rep.max_violation == 0.0

    def test_rejects_unordered_initial_data(self):
        grid = Grid.regular(128)
        m = 4.0 * np.pi
        lo = SuperBarrier(0.5, m).profile(grid)
        up = SubBarrier(1.0, m).profile(grid)
        with pytest.raises(ValueError):
            verify_discrete_comparison(lo, up, m, 0.1, _config(grid))

    def test_rejects_mismatched_grids(self):
        m = 4.0 * np.pi
        lo = SubBarrier(1.0, m).profile(Grid.regular(128))
        up = SuperBarrier(0.5, m).profile(Grid.regular(64))
        with pytest.raises(ValueError):
            verify_discrete_comparison(lo, up, m, 0.1, _config(Grid.regular(128)))


class TestBarrierConfinement:
    def test_solution_stays_under_dominating_barrier(self):
        grid = Grid.regular(256, gamma=2.0)
        M0 = preset_profile("pks", M8, grid, lam=0.5)
        bar = SuperBarrier(0.2, M8)  # strictly above the lam^2 = 0.25 family member
        assert (bar.value(grid.nodes) >= M0.values).all()
        cfg = _config(grid, t_end=0.5, snapshot_every=0.1)
        trace = simulate(cfg, M0)
        for t, prof in trace.snapshots:
            overshoot = (prof.values - bar.value(grid.nodes)).max()
            assert overshoot <= 1e-10 * M8


class TestGradientBound:
    def test_bound_dominates_slope(self):
        grid = Grid.regular(256)
        M0 = preset_profile("pks", M8, grid, lam=0.4)
        trace = simulate(_config(grid), M0)
        bound = solver.bound_gradient_v(trace)
        for _, prof in trace.snapshots:
            s = radial.potential_slope_from_mass(prof)
            assert np.abs(s.values).max() <= bound + 1e-9


@pytest.mark.parametrize("key", ["dt0", "t_end", "snapshot_every",
                                 "u_blowup_threshold"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_scheme_config_rejects_non_finite(key, value):
    with pytest.raises(ValueError):
        _config(Grid.regular(64), **{key: value})
