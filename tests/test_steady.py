import numpy as np
import pytest

from chemodisk import cli, solver, steady
from chemodisk.radial import (EIGHT_PI, Grid, MassProfile, density_from_mass,
                              preset_profile)
from chemodisk.steady import (longtime_convergence, solve_stationary_newton,
                              stationary_residual, uniqueness_sweep)

M8 = EIGHT_PI


class TestResidual:
    def test_linear_profile_is_stationary(self):
        grid = Grid.regular(256)
        W = preset_profile("constant", 4.0 * np.pi, grid)
        res = stationary_residual(W)
        assert np.abs(res).max() < 1e-10 * W.total_mass

    def test_nonstationary_profile_has_residual(self):
        grid = Grid.regular(256)
        W = preset_profile("pks", M8, grid, lam=0.5)
        assert np.abs(stationary_residual(W)).max() > 1.0

    def test_matches_barrier_closed_form(self):
        from chemodisk.barriers import residual_super_closed_form
        grid = Grid.regular(1024)
        m = 4.0 * np.pi
        W = preset_profile("barrier", m, grid, a=1.0)
        got = stationary_residual(W)
        want = residual_super_closed_form(1.0, m, grid.nodes[1:-1])
        assert np.abs(got - want).max() < 1e-3 * np.abs(want).max()


class TestNewton:
    def test_converges_from_constant(self):
        grid = Grid.regular(128)
        m = 2.0 * np.pi
        res = solve_stationary_newton(preset_profile("constant", m, grid))
        assert res.converged
        assert res.distance_to_linear < 1e-8 * m

    def test_converges_from_concentrated(self):
        grid = Grid.regular(128)
        m = 4.0 * np.pi
        res = solve_stationary_newton(preset_profile("pks", m, grid, lam=0.5))
        assert res.converged
        assert res.distance_to_linear < 1e-8 * m
        # residual history is monotone nonincreasing at acceptance
        norms = np.asarray(res.residual_norms)
        assert norms[-1] <= norms[0]

    def test_critical_mass_hard_start(self):
        grid = Grid.regular(128)
        res = solve_stationary_newton(preset_profile("pks", M8, grid, lam=0.3))
        assert res.converged
        assert res.distance_to_linear < 1e-8 * M8

    def test_result_profile_is_valid(self):
        grid = Grid.regular(128)
        m = np.pi
        res = solve_stationary_newton(preset_profile("barrier", m, grid, a=0.5))
        assert isinstance(res.profile, MassProfile)
        assert res.profile.values[0] == 0.0
        assert res.profile.values[-1] == pytest.approx(m)


class TestNewtonFineGrid:
    """Grids where the residual test cannot fire: the step-size test stops."""

    def test_residual_of_exact_root_exceeds_tolerance(self):
        # the rounding floor of Q grows like n^2 (4*xi*W'' with 1/h^2
        # weights), so a residual test alone never reports convergence here
        W = preset_profile("constant", M8, Grid.regular(512))
        assert np.abs(stationary_residual(W)).max() > 1e-10 * M8

    @pytest.mark.parametrize("n", [512, 2048])
    def test_flat_start_stops_after_one_update(self, n):
        m = M8
        res = solve_stationary_newton(preset_profile("constant", m, Grid.regular(n)))
        assert res.converged
        assert res.iterations == 1
        assert res.shifted_steps == 0
        assert res.distance_to_linear <= n * np.finfo(float).eps * m

    def test_critical_mass_hard_start(self):
        grid = Grid.regular(512)
        res = solve_stationary_newton(preset_profile("pks", M8, grid, lam=0.3))
        assert res.converged
        assert res.distance_to_linear < 1e-12 * M8
        # the line search stalls on this start; the pseudo-transient
        # shift carries it to the root
        assert res.shifted_steps > 0
        assert res.iterations <= 30

    @pytest.mark.parametrize("n,seed", [(512, s) for s in range(6)] + [(2048, 0)])
    def test_all_uniqueness_probes_reach_flat_state(self, n, seed):
        grid = Grid.regular(n)
        for m in (np.pi, 2.0 * np.pi, 4.0 * np.pi, M8):
            for j, init in enumerate(cli._newton_inits(m, grid, seed)):
                res = solve_stationary_newton(init)
                assert res.converged, (m, j)
                assert res.distance_to_linear <= n * np.finfo(float).eps * m, (m, j)


@pytest.mark.parametrize("mult,lam,u0", [
    (9, 0.1, 362.7), (10, 0.3, 128.1), (12, 0.3, 39.99), (14, 0.3, 18.38)])
def test_newton_reaches_non_flat_supercritical_state(mult, lam, u0):
    # frozen oracle: plain Newton converges from these starts to the
    # non-flat stationary branch past 8*pi; the shift must not take over
    m = mult * np.pi
    grid = Grid.regular(1024, 2.0)
    res = solve_stationary_newton(preset_profile("pks", m, grid, lam=lam))
    assert res.converged
    assert res.shifted_steps == 0
    assert density_from_mass(res.profile).values[0] == pytest.approx(u0, rel=1e-3)


class TestSweep:
    def test_linear_profile_sandwiched(self):
        grid = Grid.regular(256)
        m = 4.0 * np.pi
        W = preset_profile("constant", m, grid)
        rep = uniqueness_sweep(W)
        assert rep.conclusion == "sandwiched"
        assert rep.violated_at is None
        assert rep.final_gap < 1e-10 * m
        assert np.nanmin(rep.super_margins) > 0.0
        assert np.nanmin(rep.sub_margins) > 0.0

    def test_family_bound_shrinks_with_param_max(self):
        grid = Grid.regular(128)
        W = preset_profile("constant", np.pi, grid)
        near = uniqueness_sweep(W, param_max=10.0)
        far = uniqueness_sweep(W, param_max=1e4)
        assert far.family_gap_bound < near.family_gap_bound

    def test_detects_violation(self):
        grid = Grid.regular(128)
        # a strongly concentrated profile is not squeezed by barriers
        # seeded at the linear envelope
        W = preset_profile("pks", M8, grid, lam=0.1)
        rep = uniqueness_sweep(W)
        assert rep.conclusion == "violated"
        assert rep.violated_at is not None


class TestLongtime:
    def test_decay_toward_flat_state(self):
        grid = Grid.regular(256)
        cfg = solver.SchemeConfig(t_end=4.0, snapshot_every=0.5)
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.5)
        trace = solver.simulate(cfg, M0)
        rep = longtime_convergence(trace)
        assert rep.density_sup_distance[-1] < rep.density_sup_distance[0]
        assert rep.potential_sup[-1] < rep.potential_sup[0]
        assert rep.decay_rate > 0.0


def test_jacobian_matches_finite_differences():
    # graded grid, off-equilibrium iterate: every coefficient of the
    # banded Newton matrix against central differences of the residual
    grid = Grid.regular(48, gamma=2.0)
    m = M8
    w = preset_profile("pks", m, grid, lam=0.5).values.copy()
    op = steady._NewtonOperator(grid, m)
    lower, diag, upper = op.jacobian(w, op.residual(w)[1])
    n_in = grid.n - 1
    dense = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
    fd = np.empty((n_in, n_in))
    for j in range(n_in):
        h = 1e-6 * max(1.0, abs(w[j + 1]))
        plus, minus = w.copy(), w.copy()
        plus[j + 1] += h
        minus[j + 1] -= h
        fd[:, j] = (op.residual(plus)[0] - op.residual(minus)[0]) / (2.0 * h)
    assert np.abs(dense - fd).max() <= 1e-6 * np.abs(dense).max()
