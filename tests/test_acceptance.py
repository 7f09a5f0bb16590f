"""End-to-end acceptance checks for the laboratory's headline claims.

One test per claim, with pinned tolerances.  The heavy critical-mass run
(m = 8*pi, concentrated initial data, N = 1024) is computed once per
session and shared by the boundedness, energy, and determinism tests.
"""

import time

import numpy as np
import pytest

from chemodisk import barriers, cli, energy, radial, solver, steady
from chemodisk.config import parse_config
from chemodisk.radial import EIGHT_PI, Grid, MassProfile

M8 = EIGHT_PI

RUN4_DOC = {
    "mass": "8pi",
    "grid.n": 1024,
    "grid.gamma": 2,
    "initial.kind": "pks",
    "initial.lambda": 0.05,
    "scheme.t_end": 50,
    "scheme.snapshot_every": 1.0,
}


@pytest.fixture(scope="session")
def critical_run(tmp_path_factory):
    """The m = 8*pi concentrated run with barrier fit and summary file."""
    out = tmp_path_factory.mktemp("critical_run")
    cfg = parse_config(dict(RUN4_DOC))
    result = cli.scenario_verify_global(cfg, out)
    return cfg, result, out


def test_barrier_residual_audit():
    start = time.monotonic()
    a_values = np.geomspace(1e-3, 1e3, 30)
    m_values = np.linspace(M8 / 8.0, M8, 8)
    xi = np.arange(1, 101) / 101.0
    for a in a_values:
        for m in m_values:
            closed = barriers.residual_super_closed_form(a, m, xi)
            assert (closed > 0.0).all()
            fd = barriers.apply_q(barriers.SuperBarrier(a, m), m, xi, method="fd")
            assert (np.abs(closed - fd) <= 1e-6 * np.abs(closed)).all()
            analytic = barriers.apply_q(barriers.SuperBarrier(a, m), m, xi)
            assert (np.abs(closed - analytic) <= 1e-12 * np.abs(closed)).all()
            sub = barriers.residual_sub_closed_form(a, m, xi)
            assert (sub < 0.0).all()
            sub_fd = barriers.apply_q(barriers.SubBarrier(a, m), m, xi, method="fd")
            assert (np.abs(sub - sub_fd) <= 1e-6 * np.abs(sub)).all()
    assert time.monotonic() - start < 5.0


def test_supercritical_sign_flip():
    m = 10.0 * np.pi
    n_cells = 1024
    xi = np.arange(1, n_cells) / n_cells
    res = barriers.residual_super_closed_form(1.0, m, xi)
    flips = np.where(np.sign(res[:-1]) != np.sign(res[1:]))[0]
    assert flips.size == 1
    lo, hi = xi[flips[0]], xi[flips[0] + 1]
    assert hi - lo <= 1.0 / n_cells + 1e-15
    assert lo <= 0.2 <= hi


def test_discrete_comparison_random_pairs():
    start = time.monotonic()
    grid = Grid.regular(256)
    fields = energy.random_radial_profiles(20, grid, seed=42)
    worst = 0.0
    for k in range(10):
        fa, fb = fields[2 * k], fields[2 * k + 1]
        Ma = radial.mass_from_density(fa)
        m = Ma.total_mass
        Mb = radial.mass_from_density(fb)
        vals_b = Mb.values * (m / Mb.total_mass)
        lo = MassProfile(grid, np.minimum(Ma.values, vals_b), m)
        up = MassProfile(grid, np.maximum(Ma.values, vals_b), m)
        cfg = solver.SchemeConfig(t_end=1.0, snapshot_every=1.0)
        rep = solver.verify_discrete_comparison(lo, up, 1.0, cfg)
        assert rep.max_violation <= 1e-10 * m
        worst = max(worst, rep.max_violation)
    assert worst <= 1e-10 * M8
    assert time.monotonic() - start < 30.0


def test_critical_mass_boundedness(critical_run):
    cfg, result, _ = critical_run
    s = result.summary
    assert s["verdict"] == solver.VERDICT_COMPLETED
    assert s["barrier_confinement"] == "pass"
    # the barrier value m(a+1)/a bounds sup_t sup_xi M/xi from the first
    # snapshot onward
    assert s["sup_m_over_xi_after_snapshot"] <= s["barrier_bound_m_over_xi"]
    assert s["final_sup_distance_rel"] < 1e-2
    assert result.exit_code == 0


def test_supercritical_blowup(tmp_path_factory):
    out = tmp_path_factory.mktemp("blowup")
    cfg = parse_config({
        "mass": "10pi",
        "initial.kind": "barrier",
        "initial.a": 0.01,
        "scheme.t_end": 10,
    })
    result = cli.scenario_blowup(cfg, out)
    s = result.summary
    assert s["verdict_n512"] == solver.VERDICT_BLOWUP
    assert s["verdict_n1024"] == solver.VERDICT_BLOWUP
    assert s["blowup_time_n512"] < 10.0
    assert s["blowup_time_n1024"] < 10.0
    assert s["peak_innermost"]
    assert s["threshold_doubling_shift"] < 0.10
    assert s["peak_growth_ok"]
    assert result.exit_code == 0


def test_energy_decay_and_budget(critical_run):
    _, result, _ = critical_run
    trace = result.traces[0]
    F = np.asarray(trace.energy)
    jumps = np.diff(F)
    assert (jumps <= 1e-6 * np.abs(F[:-1])).all()
    audit = energy.audit_decay(trace)
    assert audit.budget_residual <= 0.02
    expected = M8 * np.log(8.0)
    assert abs(F[-1] - expected) <= 0.01 * expected


def test_second_moment_identity():
    grid = Grid.regular(512)
    for field in energy.random_radial_profiles(20, grid, seed=7):
        M = radial.mass_from_density(field)
        lhs = radial.second_moment(M)
        r = grid.radii
        rhs, est_r = radial.trapezoid(2.0 * np.pi * field.values * r ** 3, r)
        _, est_xi = radial.trapezoid(M.values, grid.nodes)
        assert abs(lhs - rhs) <= 10.0 * (est_r + est_xi)


def test_stationary_uniqueness(tmp_path_factory):
    out = tmp_path_factory.mktemp("uniqueness")
    grid = Grid.regular(256)
    for m in (np.pi, 2.0 * np.pi, 4.0 * np.pi, M8):
        rep = cli.run_uniqueness_probes(m, grid, seed=0, out_dir=out)
        assert rep["all_converged"]
        assert rep["max_distance"] < 1e-8 * m
        assert rep["sweep_conclusion"] == "sandwiched"
        assert rep["sweep_final_gap"] < 1e-8 * m


def test_loghls_inequality():
    grid = Grid.regular(2048)
    for field in energy.random_radial_profiles(100, grid, seed=0):
        margin = energy.loghls_margin(field)
        assert margin >= -1e-6
        if margin < 1e-4:
            lam = radial.mass_from_density(field).total_mass
            flat = lam / np.pi
            assert np.abs(field.values - flat).max() / flat < 1e-2


def test_spatial_convergence_order(critical_run):
    cfg, _, _ = critical_run

    def final_density(n):
        child = cfg.replace(**{"grid.n": n, "scheme.t_end": 1.0})
        grid = child.grid()
        trace = solver.simulate(child.scheme, child.initial_profile(grid))
        t, prof = trace.snapshots[-1]
        assert t == pytest.approx(1.0, abs=1e-12)
        return radial.density_from_mass(prof).values

    resolutions = [128, 256, 512, 1024]
    ref = final_density(4096)
    errors = []
    for n in resolutions:
        u = final_density(n)
        stride = 4096 // n
        errors.append(float(np.abs(u - ref[::stride]).max()))
    orders = [np.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]
    assert all(order >= 1.0 for order in orders), (
        f"observed orders {orders} from errors {errors}")


def test_determinism(critical_run, tmp_path_factory):
    cfg, _, first_dir = critical_run
    second_dir = tmp_path_factory.mktemp("critical_rerun")
    cli.scenario_verify_global(cfg, second_dir)
    first = (first_dir / "summary.txt").read_bytes()
    second = (second_dir / "summary.txt").read_bytes()
    assert first == second
