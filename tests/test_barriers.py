import numpy as np
import pytest

from chemodisk import barriers
from chemodisk.barriers import (DerivativeBoundError, DominationError,
                                SubBarrier, SuperBarrier, apply_q,
                                audit_residuals, find_dominated_sub,
                                find_dominating_super,
                                residual_sub_closed_form,
                                residual_super_closed_form, separation_margin)
from chemodisk.radial import EIGHT_PI, Grid, MassProfile, preset_profile

M8 = EIGHT_PI


class TestFamilies:
    def test_super_endpoints(self):
        bar = SuperBarrier(0.5, M8)
        assert bar.value(0.0) == 0.0
        assert bar.value(1.0) == pytest.approx(M8)

    def test_sub_endpoints(self):
        bar = SubBarrier(0.5, M8)
        assert bar.value(0.0) == 0.0
        assert bar.value(1.0) == pytest.approx(M8)

    def test_super_above_linear_sub_below(self):
        xi = np.linspace(0.05, 0.95, 19)
        assert (SuperBarrier(1.0, M8).value(xi) > M8 * xi).all()
        assert (SubBarrier(1.0, M8).value(xi) < M8 * xi).all()

    def test_large_parameter_collapses_to_linear(self):
        xi = np.linspace(0.0, 1.0, 21)
        assert np.abs(SuperBarrier(1e6, M8).value(xi) - M8 * xi).max() < 1e-5 * M8
        assert np.abs(SubBarrier(1e6, M8).value(xi) - M8 * xi).max() < 1e-5 * M8

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SuperBarrier(0.0, M8)
        with pytest.raises(ValueError):
            SubBarrier(-1.0, M8)
        with pytest.raises(ValueError):
            SuperBarrier(1.0, 0.0)


class TestClosedForms:
    def test_super_value_at_half(self):
        # a=1, m=8pi, xi=0.5: the factored form gives
        # (8pi*0.5*2*1/3.375) * (8pi*0.5)/pi = 32*pi/3.375
        got = residual_super_closed_form(1.0, M8, 0.5)
        assert got == pytest.approx(32.0 * np.pi / 3.375, rel=1e-13)

    def test_sub_value_at_half(self):
        # b=1, m=8pi, xi=0.5: -(8pi*0.5*2/(pi*3.375)) * 4pi = -32pi/3.375
        got = residual_sub_closed_form(1.0, M8, 0.5)
        assert got == pytest.approx(-32.0 * np.pi / 3.375, rel=1e-13)

    def test_signs_subcritical(self):
        xi = np.linspace(1e-4, 1.0 - 1e-4, 400)
        for a in (1e-3, 0.1, 1.0, 100.0):
            for m in (0.5, np.pi, 4 * np.pi, M8):
                assert (residual_super_closed_form(a, m, xi) > 0).all()
                assert (residual_sub_closed_form(a, m, xi) < 0).all()

    def test_supercritical_sign_flip_location(self):
        # for m = 10pi the zero of 8pi - m + m*xi sits at xi = 0.2
        m = 10.0 * np.pi
        xi = np.linspace(0.001, 0.999, 2000)
        res = residual_super_closed_form(1.0, m, xi)
        flips = np.where(np.sign(res[:-1]) != np.sign(res[1:]))[0]
        assert flips.size == 1
        assert xi[flips[0]] < 0.2 < xi[flips[0] + 1]

    @pytest.mark.parametrize("family,closed_form", [
        (SuperBarrier, residual_super_closed_form),
        (SubBarrier, residual_sub_closed_form)], ids=["super", "sub"])
    @pytest.mark.parametrize("m", [np.pi, 4.0 * np.pi, M8])
    @pytest.mark.parametrize("param", [1e-3, 0.3, 1e3])
    def test_matches_analytic_q(self, family, closed_form, m, param):
        xi = np.linspace(0.05, 0.95, 31)
        closed = closed_form(param, m, xi)
        analytic = apply_q(family(param, m), m, xi)
        np.testing.assert_allclose(analytic, closed, rtol=1e-12, atol=0.0)


def test_sub_barrier_refuses_a_nonpositive_mass():
    with pytest.raises(ValueError, match="mass must be positive"):
        SubBarrier(1.0, 0.0)


class TestApplyQ:
    def test_fd_matches_closed_form(self):
        xi = np.linspace(0.02, 0.98, 50)
        for a in (1e-3, 1.0, 1e3):
            bar = SuperBarrier(a, M8)
            closed = residual_super_closed_form(a, M8, xi)
            fd = apply_q(bar, M8, xi, method="fd")
            assert np.abs(closed - fd).max() <= 1e-6 * np.abs(closed).max()

    def test_callable_path(self):
        m = 4.0 * np.pi
        xi = np.linspace(0.1, 0.9, 9)
        got = apply_q(lambda x: m * x, m, xi, method="fd")
        assert np.allclose(got, 0.0, atol=1e-6)

    def test_rejects_endpoint_evaluation(self):
        with pytest.raises(ValueError):
            apply_q(SuperBarrier(1.0, M8), M8, np.array([0.0, 0.5]))

    def test_analytic_requires_barrier(self):
        with pytest.raises(ValueError):
            apply_q(lambda x: x, 1.0, np.array([0.5]), method="analytic")


class TestEnvelopeFits:
    def test_super_dominates_linear(self):
        grid = Grid.regular(256)
        M = preset_profile("constant", 4.0 * np.pi, grid)
        bar = find_dominating_super(M)
        assert (bar.value(grid.nodes) >= M.values).all()

    def test_sub_dominated_by_linear(self):
        grid = Grid.regular(256)
        M = preset_profile("constant", 4.0 * np.pi, grid)
        bar = find_dominated_sub(M)
        assert (bar.value(grid.nodes) <= M.values).all()

    def test_fits_concentrated_profile(self):
        grid = Grid.regular(512, gamma=2.0)
        M = preset_profile("pks", M8, grid, lam=0.3)
        bar = find_dominating_super(M)
        gap = bar.value(grid.nodes) - M.values
        assert gap.min() >= 0.0

    def test_rejects_small_bound(self):
        grid = Grid.regular(256)
        M = preset_profile("constant", 4.0 * np.pi, grid)
        with pytest.raises(ValueError):
            find_dominating_super(M, C=1.0)

    def test_derivative_window_enforced(self):
        grid = Grid.regular(512)
        # steep pks profile escapes a tight derivative window
        M = preset_profile("pks", M8, grid, lam=0.05)
        with pytest.raises(DerivativeBoundError):
            find_dominating_super(M, C=1.5 * M8)

    @pytest.mark.parametrize("fit", [find_dominating_super, find_dominated_sub])
    def test_rejects_bound_too_large_for_the_envelope_margin(self, fit):
        # the derivative window (1/C, C) holds, but the 1e-6*m margin exceeds
        # the room C leaves between the chords once C > 1/(1e-6*m)
        grid = Grid.regular(256)
        M = preset_profile("constant", 4.0 * np.pi, grid)
        with pytest.raises(DerivativeBoundError, match="C too large"):
            fit(M, C=1e6)


class TestSeparation:
    def test_positive_margin(self):
        grid = Grid.regular(128)
        up = SuperBarrier(1.0, M8).profile(grid)
        lo = SubBarrier(1.0, M8).profile(grid)
        assert separation_margin(up, lo) > 0.0

    def test_raises_on_disorder(self):
        grid = Grid.regular(128)
        up = SuperBarrier(1.0, M8).profile(grid)
        lo = SubBarrier(1.0, M8).profile(grid)
        with pytest.raises(DominationError):
            separation_margin(lo, up)

    def test_requires_shared_grid(self):
        up = SuperBarrier(1.0, M8).profile(Grid.regular(128))
        lo = SubBarrier(1.0, M8).profile(Grid.regular(64))
        with pytest.raises(ValueError):
            separation_margin(up, lo)


class TestAudit:
    def test_rows_shape_and_error(self):
        rows = audit_residuals([0.1, 1.0], [np.pi, M8], np.linspace(0.1, 0.9, 5))
        assert len(rows) == 2 * 2 * 5
        for a, m, xi, closed, fd, err in rows:
            assert closed > 0.0
            assert err == abs(closed - fd)
            assert err <= 1e-6 * closed
