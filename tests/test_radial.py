import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemodisk import radial
from chemodisk.radial import (EIGHT_PI, Grid, MassProfile, ProfileError,
                              RadialField, cumulative_trapezoid, derivative,
                              second_derivative_interior, trapezoid)


class TestGrid:
    def test_regular_uniform(self):
        g = Grid.regular(64)
        assert g.n == 64
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 1.0
        assert np.allclose(np.diff(g.nodes), 1.0 / 64)

    def test_regular_graded(self):
        g = Grid.regular(64, gamma=2.0)
        assert np.allclose(g.nodes, (np.arange(65) / 64) ** 2)
        # grading concentrates nodes near the origin
        assert np.diff(g.nodes)[0] < np.diff(g.nodes)[-1]

    def test_radii(self):
        g = Grid.regular(32)
        assert np.allclose(g.radii ** 2, g.nodes)

    def test_rejects_small(self):
        with pytest.raises(ProfileError):
            Grid.regular(8)

    def test_rejects_a_grading_exponent_below_one(self):
        with pytest.raises(ProfileError, match="gamma must be >= 1"):
            Grid.regular(16, 0.5)

    def test_rejects_bad_span(self):
        nodes = np.linspace(0.1, 1.0, 33)
        with pytest.raises(ProfileError):
            Grid(nodes)

    def test_rejects_nonmonotone(self):
        nodes = np.linspace(0.0, 1.0, 33)
        nodes[5] = nodes[7]
        with pytest.raises(ProfileError):
            Grid(nodes)

    def test_equality(self):
        assert Grid.regular(32) == Grid.regular(32)
        assert Grid.regular(32) != Grid.regular(32, gamma=2.0)


class TestStencils:
    def test_derivative_exact_on_quadratics(self):
        x = Grid.regular(40, gamma=2.0).nodes
        y = 3.0 * x ** 2 - 2.0 * x + 1.0
        assert np.allclose(derivative(y, x), 6.0 * x - 2.0, atol=1e-11)

    def test_second_derivative_exact_on_quadratics(self):
        x = Grid.regular(40, gamma=1.5).nodes
        y = 3.0 * x ** 2 - 2.0 * x + 1.0
        assert np.allclose(second_derivative_interior(y, x), 6.0, atol=1e-9)

    def test_trapezoid_linear_exact(self):
        x = Grid.regular(32).nodes
        val, est = trapezoid(2.0 * x, x)
        assert val == pytest.approx(1.0, abs=1e-14)
        assert est == pytest.approx(0.0, abs=1e-12)

    def test_trapezoid_estimate_bounds_error(self):
        x = Grid.regular(64).nodes
        val, est = trapezoid(x ** 3, x)
        assert abs(val - 0.25) <= 10.0 * est

    def test_cumulative_trapezoid(self):
        x = np.linspace(0.0, 1.0, 101)
        out = cumulative_trapezoid(np.ones_like(x), x)
        assert np.allclose(out, x)


class TestMassProfile:
    def test_valid(self):
        g = Grid.regular(32)
        M = MassProfile(g, 4.0 * g.nodes, 4.0)
        assert M.values[0] == 0.0
        assert M.values[-1] == 4.0

    def test_rejects_decreasing(self):
        g = Grid.regular(32)
        vals = 4.0 * g.nodes
        vals[10] = vals[12]
        vals[11] = vals[9]
        with pytest.raises(ProfileError):
            MassProfile(g, vals, 4.0)

    def test_rejects_wrong_endpoint(self):
        g = Grid.regular(32)
        with pytest.raises(ProfileError):
            MassProfile(g, 3.0 * g.nodes, 4.0)

    def test_rejects_nonpositive_mass(self):
        g = Grid.regular(32)
        with pytest.raises(ProfileError):
            MassProfile(g, 0.0 * g.nodes, -1.0)

    def test_rejects_values_of_another_grid(self):
        with pytest.raises(ProfileError, match="profile values must match the grid"):
            MassProfile(Grid.regular(32), 4.0 * Grid.regular(16).nodes, 4.0)


def test_a_field_refuses_a_nan():
    g = Grid.regular(16)
    values = np.ones_like(g.nodes)
    values[3] = np.nan
    with pytest.raises(ProfileError, match="field values must be finite"):
        RadialField(g, values)


def test_mass_from_density_refuses_a_negative_density():
    g = Grid.regular(16)
    u = RadialField(g, np.where(g.nodes < 0.5, 1.0, -1.0))
    with pytest.raises(ProfileError, match="density must be nonnegative"):
        radial.mass_from_density(u)


class TestTransforms:
    def test_constant_density_round_trip(self):
        g = Grid.regular(128)
        u = RadialField(g, np.full(g.n + 1, 4.0))
        M = radial.mass_from_density(u)
        # constant density u0 integrates to M = pi*u0*xi exactly
        assert np.allclose(M.values, 4.0 * np.pi * g.nodes, atol=1e-12)
        back = radial.density_from_mass(M)
        assert np.allclose(back.values, 4.0, atol=1e-9)

    def test_density_from_pks_mass(self):
        # M = 16*pi*xi/(1+xi) has u = M_xi/pi = 16/(1+xi)^2; at xi=0.5
        # the density is 16/2.25
        g = Grid.regular(256)
        M = radial.preset_profile("pks", EIGHT_PI, g, lam=1.0)
        assert np.allclose(M.values, 16.0 * np.pi * g.nodes / (1.0 + g.nodes))
        u = radial.density_from_mass(M)
        i = np.searchsorted(g.nodes, 0.5)
        assert u.values[i] == pytest.approx(16.0 / 2.25, rel=1e-4)

    def test_potential_slope_value(self):
        # M = 16*pi*xi/(1+xi), m = 8*pi: at xi = 0.25 the slope is
        # -(M - m*xi)/(2*pi*sqrt(xi)) = -1.2*pi/pi = -1.2
        g = Grid.regular(64)
        M = radial.preset_profile("pks", EIGHT_PI, g, lam=1.0)
        s = radial.potential_slope_from_mass(M)
        i = np.searchsorted(g.nodes, 0.25)
        expected = -(16.0 * np.pi * 0.2 - EIGHT_PI * 0.25) / (2.0 * np.pi * 0.5)
        assert expected == pytest.approx(-1.2)
        assert s.values[i] == pytest.approx(-1.2, rel=1e-10)

    def test_potential_slope_zero_at_origin(self):
        g = Grid.regular(64)
        M = radial.preset_profile("pks", EIGHT_PI, g, lam=0.5)
        s = radial.potential_slope_from_mass(M)
        assert s.values[0] == 0.0

    def test_potential_zero_disk_average(self):
        g = Grid.regular(512)
        M = radial.preset_profile("pks", EIGHT_PI, g, lam=0.7)
        v = radial.potential_from_slope(radial.potential_slope_from_mass(M))
        avg, est = trapezoid(v.values, g.nodes)
        assert abs(avg) <= max(est, 1e-12)

    def test_linear_mass_zero_slope(self):
        g = Grid.regular(64)
        M = radial.preset_profile("constant", 4.0, g)
        s = radial.potential_slope_from_mass(M)
        assert np.allclose(s.values, 0.0, atol=1e-14)

    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_transforms_stay_on_the_grid_of_their_input(self, gamma):
        M = radial.preset_profile("pks", EIGHT_PI, Grid.regular(128, gamma), lam=0.5)
        u = radial.density_from_mass(M)
        s = radial.potential_slope_from_mass(M)
        assert radial.mass_from_density(u).grid is M.grid
        assert s.grid is M.grid
        assert radial.potential_from_slope(s).grid is M.grid


class TestRadialField:
    def test_rejects_values_off_the_grid(self):
        g = Grid.regular(32)
        with pytest.raises(ProfileError, match="match the grid"):
            RadialField(g, np.ones(g.n))


class TestSecondMoment:
    def test_matches_direct_integral(self):
        # M = 8*pi*xi/(1+xi) carries total mass 4*pi; the second moment
        # m - int M dxi evaluates to 8*pi*ln 2 - 4*pi
        g = Grid.regular(2048)
        vals = 8.0 * np.pi * g.nodes / (1.0 + g.nodes)
        M = MassProfile(g, vals, 4.0 * np.pi)
        expected = 8.0 * np.pi * np.log(2.0) - 4.0 * np.pi
        assert radial.second_moment(M) == pytest.approx(expected, rel=1e-6)

    def test_identity_against_density_integral(self):
        g = Grid.regular(512)
        M = radial.preset_profile("pks", EIGHT_PI, g, lam=0.4)
        u = radial.density_from_mass(M)
        r = g.radii
        direct, est = trapezoid(2.0 * np.pi * u.values * r ** 3, r)
        _, est2 = trapezoid(M.values, g.nodes)
        assert abs(radial.second_moment(M) - direct) <= 10.0 * (est + est2) + 1e-10


class TestPresets:
    def test_constant(self):
        g = Grid.regular(32)
        M = radial.preset_profile("constant", 5.0, g)
        assert np.allclose(M.values, 5.0 * g.nodes)

    def test_pks_total_mass(self):
        g = Grid.regular(32)
        M = radial.preset_profile("pks", EIGHT_PI, g, lam=0.05)
        assert M.values[-1] == pytest.approx(EIGHT_PI)

    def test_barrier_matches_pks_with_matching_scale(self):
        # the pks preset with scale lam coincides with the concave barrier
        # at a = lam^2
        g = Grid.regular(32)
        a = radial.preset_profile("pks", 4.0, g, lam=0.3)
        b = radial.preset_profile("barrier", 4.0, g, a=0.09)
        assert np.allclose(a.values, b.values)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ProfileError):
            radial.preset_profile("box", 1.0, Grid.regular(32))

    def test_rejects_missing_parameter(self):
        with pytest.raises(ProfileError):
            radial.preset_profile("pks", 1.0, Grid.regular(32))

    def test_rejects_stray_parameter(self):
        with pytest.raises(ProfileError):
            radial.preset_profile("constant", 1.0, Grid.regular(32), lam=1.0)


class TestGridStencil:
    def test_built_once_per_grid(self):
        g = Grid.regular(64, gamma=2.0)
        assert g.stencil is g.stencil

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
    def test_first_derivative_matches_derivative_bitwise(self, gamma):
        g = Grid.regular(512, gamma=gamma)
        f = np.sin(3.0 * g.nodes) + g.nodes ** 2
        assert np.array_equal(g.stencil.d1_xi(f), derivative(f, g.nodes))
        assert np.array_equal(g.stencil.d1_r(f), derivative(f, g.radii))

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
    def test_second_derivative_matches_d2_weights_bitwise(self, gamma):
        g = Grid.regular(512, gamma=gamma)
        f = np.sin(3.0 * g.nodes) + g.nodes ** 2
        lo, mid, hi = g.stencil.d2
        weighted = lo * f[:-2] + mid * f[1:-1] + hi * f[2:]
        assert np.array_equal(g.stencil.d2_interior(f), weighted)
        assert np.array_equal(second_derivative_interior(f, g.nodes), weighted)

    def test_second_derivative_weights_exact_on_quadratics(self):
        g = Grid.regular(40, gamma=1.5)
        y = 3.0 * g.nodes ** 2 - 2.0 * g.nodes + 1.0
        lo, mid, hi = g.stencil.d2
        assert np.allclose(lo * y[:-2] + mid * y[1:-1] + hi * y[2:], 6.0, atol=1e-9)

    def test_trapezoid_weights(self):
        g = Grid.regular(64, gamma=2.0)
        y = np.cos(g.nodes)
        assert g.stencil.w_xi @ y == pytest.approx(trapezoid(y, g.nodes)[0], rel=1e-14)


class TestNonFinite:
    def test_grid_rejects_nan_interior_node(self):
        nodes = np.linspace(0.0, 1.0, 33)
        nodes[5] = np.nan
        with pytest.raises(ProfileError):
            Grid(nodes)

    def test_mass_profile_rejects_nan_values(self):
        g = Grid.regular(32)
        with pytest.raises(ProfileError):
            MassProfile(g, np.full(g.n + 1, np.nan), 4.0)

    @pytest.mark.parametrize("m", [np.nan, np.inf])
    def test_mass_profile_rejects_non_finite_mass(self, m):
        g = Grid.regular(32)
        with pytest.raises(ProfileError):
            MassProfile(g, 4.0 * g.nodes, m)


class TestFittedWeights:
    """Properties of the fitted weights that the solver's comparison
    argument rests on (see the chemodisk.solver docstring)."""

    GAMMAS = [1.0, 2.0, 3.0]

    @staticmethod
    def _operator(gamma):
        grid = Grid.regular(64, gamma)
        st = grid.stencil
        a = 4.0 * grid.nodes[1:-1]
        return st, a, radial.FittedOperator(st, a)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_nonnegative_and_finite_up_to_peclet_1e3(self, gamma):
        st, a, op = self._operator(gamma)
        h = np.maximum(st.hm, st.hp)
        for pe in np.concatenate(([0.0], np.geomspace(1e-12, 1e3, 61))):
            for sign in (1.0, -1.0):
                c = sign * pe * a / h
                with np.errstate(invalid="raise", divide="raise"):
                    wl, wr = op.weights(c)
                assert np.isfinite(wl).all() and np.isfinite(wr).all()
                assert (wl >= 0.0).all() and (wr >= 0.0).all()
                if pe <= 100.0:
                    assert (wl > 0.0).all() and (wr > 0.0).all()

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_central_at_zero_speed(self, gamma):
        st, a, op = self._operator(gamma)
        wl, wr = op.weights(np.zeros_like(a))
        lo, _, hi = st.d2
        np.testing.assert_allclose(wl, a * lo, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(wr, a * hi, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_upwind_limit_at_large_peclet(self, gamma):
        st, a, op = self._operator(gamma)
        c = 1e3 * a / np.minimum(st.hm, st.hp)  # local Peclet >= 1e3
        wl, wr = op.weights(c)
        np.testing.assert_allclose(wr, c / st.hp, rtol=2e-3)
        assert (wl * st.hm <= 1e-300 * c).all()
        wl, wr = op.weights(-c)
        np.testing.assert_allclose(wl, c / st.hm, rtol=2e-3)
        assert (wr * st.hp <= 1e-300 * c).all()

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_exact_on_xi_and_exponential(self, gamma):
        st, a, op = self._operator(gamma)
        rng = np.random.default_rng(3)
        for pe in (1e-9, 1e-4, 5e-3, 2e-2, 0.3, 3.0, 30.0):
            c = pe * a / np.maximum(st.hm, st.hp) * rng.choice([-1.0, 1.0], a.size)
            wl, wr = op.weights(c)
            # W xi = c, up to rounding of the two fluxes
            flux = wr * st.hp + wl * st.hm
            err = np.abs(wr * st.hp - wl * st.hm - c)
            assert (err <= 1e-12 * np.abs(c) + 1e-15 * flux).all()
            # W exp(lam (xi - xi_i)) = 0 with lam = -c/a
            lam = -c / a
            terms = (wl * np.expm1(-lam * st.hm), wr * np.expm1(lam * st.hp))
            scale = np.abs(terms[0]) + np.abs(terms[1])
            assert (np.abs(terms[0] + terms[1]) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_wl_falls_and_wr_rises_with_c(self, gamma):
        st, a, op = self._operator(gamma)
        h = np.maximum(st.hm, st.hp)
        pe = np.concatenate((-np.geomspace(1e3, 1e-8, 120), [0.0],
                             np.geomspace(1e-8, 1e3, 120)))
        wls, wrs = zip(*(op.weights(p * a / h) for p in pe))
        wls, wrs = np.array(wls), np.array(wrs)
        assert (wls[1:] <= wls[:-1] * (1.0 + 1e-12)).all()
        assert (wrs[1:] >= wrs[:-1] * (1.0 - 1e-12)).all()


def _round_trip_error(M):
    """max |M - mass_from_density(density_from_mass(M))| over the nodes."""
    back = radial.mass_from_density(radial.density_from_mass(M))
    return float(np.abs(back.values - M.values).max())


@settings(max_examples=100, deadline=None)
@given(st.integers(64, 512), st.floats(1.0, 3.0), st.one_of(
    st.floats(np.log10(0.3), 1.0).map(lambda e: ("pks", {"lam": 10.0 ** e})),
    st.floats(-1.0, 2.0).map(lambda e: ("barrier", {"a": 10.0 ** e}))))
def test_mass_density_round_trip_is_second_order(n, gamma, preset):
    # D1 and the trapezoid rule are each second order on the graded grid, so
    # doubling n cuts the round-trip error about fourfold
    kind, params = preset
    err = [_round_trip_error(radial.preset_profile(kind, EIGHT_PI, Grid.regular(k, gamma),
                                                   **params)) for k in (n, 2 * n)]
    assert err[0] >= 3.0 * err[1]


@settings(max_examples=100, deadline=None)
@given(st.integers(16, 1024), st.floats(1.0, 3.0), st.floats(1e-3, 16.0 * np.pi))
def test_constant_density_round_trips_to_roundoff(n, gamma, m):
    M = radial.preset_profile("constant", m, Grid.regular(n, gamma))
    assert _round_trip_error(M) <= 1e-13 * m
