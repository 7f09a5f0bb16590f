import numpy as np
import pytest

from chemodisk import energy, radial, solver
from chemodisk.energy import (audit_decay, dissipation, energy_report,
                              free_energy, loghls_margin,
                              random_radial_profiles)
from chemodisk.radial import EIGHT_PI, Grid, RadialField, preset_profile

M8 = EIGHT_PI


def _constant_fields(grid, m):
    u = RadialField(grid, np.full(grid.n + 1, m / np.pi))
    v = RadialField(grid, np.zeros(grid.n + 1))
    return u, v


class TestFreeEnergy:
    def test_constant_state_value(self):
        # for the flat state with zero-average potential,
        # F = m ln(m/pi); at m = 4pi that is 4pi ln 4
        grid = Grid.regular(512)
        u, v = _constant_fields(grid, 4.0 * np.pi)
        expected = 4.0 * np.pi * np.log(4.0)
        assert free_energy(u, v) == pytest.approx(expected, rel=1e-12)

    def test_report_fields(self):
        grid = Grid.regular(256)
        u, v = _constant_fields(grid, M8)
        rep = energy_report(u, v)
        assert rep.value == pytest.approx(M8 * np.log(8.0), rel=1e-12)
        assert rep.dissipation == pytest.approx(0.0, abs=1e-12)
        assert rep.clamp_count == 0

    def test_rejects_negative_density(self):
        grid = Grid.regular(256)
        u = RadialField(grid, np.full(grid.n + 1, -1.0))
        v = RadialField(grid, np.zeros(grid.n + 1))
        with pytest.raises(radial.ProfileError):
            energy_report(u, v)

    def test_rejects_fields_on_different_grids(self):
        M = [preset_profile("pks", M8, Grid.regular(256, gamma), lam=0.5)
             for gamma in (1.0, 3.0)]
        u = radial.density_from_mass(M[0])
        v = radial.potential_from_slope(radial.potential_slope_from_mass(M[1]))
        for report in (energy_report, free_energy, dissipation):
            with pytest.raises(radial.ProfileError, match="share a grid"):
                report(u, v)

    def test_clamp_counted_for_vanishing_density(self):
        grid = Grid.regular(256)
        vals = np.full(grid.n + 1, 1.0)
        vals[:10] = 0.0
        u = RadialField(grid, vals)
        v = RadialField(grid, np.zeros(grid.n + 1))
        assert energy_report(u, v).clamp_count == 10


class TestDissipation:
    def test_zero_at_gibbs_state(self):
        # u = C exp(v) zeroes the flux ln u - v up to a constant, and the
        # same stencil is applied to both terms
        grid = Grid.regular(256)
        v_vals = 0.3 * np.cos(np.pi * grid.radii)
        u = RadialField(grid, 2.0 * np.exp(v_vals))
        v = RadialField(grid, v_vals)
        assert dissipation(u, v) == pytest.approx(0.0, abs=1e-10)

    def test_positive_off_equilibrium(self):
        grid = Grid.regular(256)
        M = preset_profile("pks", M8, grid, lam=0.5)
        u = radial.density_from_mass(M)
        v = radial.potential_from_slope(radial.potential_slope_from_mass(M))
        assert dissipation(u, v) > 0.0


class TestDecayAudit:
    def test_on_simulated_trace(self):
        grid = Grid.regular(256)
        cfg = solver.SchemeConfig(t_end=2.0, snapshot_every=1.0)
        M0 = preset_profile("pks", 4.0 * np.pi, grid, lam=0.5)
        trace = solver.simulate(cfg, M0)
        audit = audit_decay(trace)
        assert audit.energy_drop > 0.0
        fscale = max(abs(e) for e in trace.energy)
        assert audit.max_upward_jump <= 1e-6 * fscale
        assert audit.budget_residual < 0.2

    def test_flat_trace_residual_uses_unit_denominator(self):
        trace = solver.SimulationTrace(total_mass=np.pi)
        trace.record(0.0, 0.0, (1.0, np.pi, 5.0, 0.0, 0.1))
        trace.record(1.0, 1.0, (1.0, np.pi, 5.0, 0.0, 0.1))
        audit = audit_decay(trace)
        assert audit.energy_drop == 0.0
        assert audit.budget_residual == 0.0


class TestLogHls:
    def test_constant_state_is_equality(self):
        grid = Grid.regular(512)
        u = RadialField(grid, np.full(grid.n + 1, M8 / np.pi))
        assert loghls_margin(u) == pytest.approx(0.0, abs=1e-10)

    def test_positive_for_nonconstant(self):
        grid = Grid.regular(512)
        M = preset_profile("pks", 4.0 * np.pi, grid, lam=0.5)
        u = radial.density_from_mass(M)
        assert loghls_margin(u) > 1e-3

    def test_rejects_supercritical_mass(self):
        grid = Grid.regular(256)
        u = RadialField(grid, np.full(grid.n + 1, 10.0))
        with pytest.raises(ValueError):
            loghls_margin(u)

    def test_corpus_margins_nonnegative(self):
        grid = Grid.regular(512)
        for field in random_radial_profiles(10, grid, seed=0):
            assert loghls_margin(field) >= -1e-6


class TestRandomProfiles:
    def test_reproducible(self):
        grid = Grid.regular(128)
        a = random_radial_profiles(5, grid, seed=3)
        b = random_radial_profiles(5, grid, seed=3)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_positive_and_in_mass_range(self):
        grid = Grid.regular(256)
        for field in random_radial_profiles(20, grid, seed=1):
            assert field.values.min() > 0.0
            lam = energy._mass_of(field)
            assert 0.4 - 1e-9 <= lam <= M8 + 1e-9


def test_energy_report_matches_solver_trace():
    # the solver's per-step F and D and energy_report share one routine
    grid = Grid.regular(256, gamma=2.0)
    cfg = solver.SchemeConfig(t_end=0.5, snapshot_every=0.25)
    trace = solver.simulate(cfg, preset_profile("pks", M8, grid, lam=0.2))
    t, prof = trace.snapshots[1]
    k = trace.times.index(t)
    u = radial.density_from_mass(prof)
    v = radial.potential_from_slope(radial.potential_slope_from_mass(prof))
    rep = energy_report(u, v)
    assert rep.value == pytest.approx(trace.energy[k], rel=1e-12)
    assert rep.dissipation == pytest.approx(trace.dissipation[k], rel=1e-12)
