"""Command-line surface: runs, audits, sweeps, and named scenarios.

Subcommands: simulate, barrier, steady, energy-audit, sweep, and
scenario <name> with names verify-global, dichotomy, blowup, uniqueness,
check.  ``steady --mass M`` runs the uniqueness probes of the uniqueness
scenario at the given masses instead of pi, 2pi, 4pi and 8pi.
Exit codes: 0 all assertions pass, 1 usage error, 2 scientific verdict
mismatch (for ``simulate``: the run stopped at the step floor).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import barriers, csvio, energy, radial, solver, steady
from .config import ConfigError, ExperimentConfig, parse_config, parse_number
from .radial import EIGHT_PI, Grid
from .solver import VERDICT_BLOWUP, VERDICT_COMPLETED, VERDICT_STEP_FLOOR

CONFINE_TOL = 1e-10  # relative to m, barrier-confinement slack


@dataclass
class ScenarioResult:
    exit_code: int
    summary: dict
    traces: list


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# single simulation run
# ---------------------------------------------------------------------------

def run_simulation(cfg: ExperimentConfig, out_dir) -> tuple:
    """Run one simulation, write trace/snapshot CSVs, return (trace, summary)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.grid()
    M0 = cfg.initial_profile(grid)
    trace = solver.simulate(cfg.scheme(grid), M0)

    csvio.write_trace(out / "trace.csv", trace)
    for idx, (_, prof) in enumerate(trace.snapshots):
        csvio.write_snapshot(out / f"snap_{idx}.csv", prof)

    m = cfg.mass
    final = trace.snapshots[-1][1]
    u_final = radial.density_from_mass(final)
    audit = energy.audit_decay(trace)
    fscale = max(abs(min(trace.energy)), abs(max(trace.energy)), 1e-300)
    summary = {
        "verdict": trace.verdict,
        "t_final": trace.times[-1],
        "steps": len(trace.times) - 1,
        "final_sup_u": trace.sup_u[-1],
        "final_sup_distance_rel": float(
            np.abs(u_final.values - m / np.pi).max() * np.pi / m),
        "sup_m_over_xi_max": max(trace.sup_m_over_xi),
        "grad_v_bound": solver.bound_gradient_v(trace),
        "energy_final": trace.energy[-1],
        "energy_max_jump_rel": audit.max_upward_jump / fscale,
        "energy_budget_residual": audit.budget_residual,
        "second_moment_initial": trace.second_moment[0],
        "clip_events": trace.clip_events,
        "blowup_time": "" if trace.blowup_time is None else trace.blowup_time,
        "blowup_xi": "" if trace.blowup_xi is None else trace.blowup_xi,
    }
    return trace, summary


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _confinement(trace, bar, m, t_from) -> float:
    """Worst overshoot above the barrier among snapshots at t >= t_from."""
    worst = -np.inf
    for t, prof in trace.snapshots:
        if t < t_from:
            continue
        worst = max(worst, float((prof.values - bar.value(prof.xi)).max()))
    return worst


def scenario_verify_global(cfg: ExperimentConfig, out_dir) -> ScenarioResult:
    """Critical-mass pipeline: simulate, fit a barrier at the first snapshot,
    assert confinement from then on, and report the gradient bound."""
    trace, summary = run_simulation(cfg, out_dir)
    m = cfg.mass
    positive = [(t, p) for t, p in trace.snapshots if t > 0]
    code = 0 if trace.verdict == VERDICT_COMPLETED else 2
    if positive:
        t1, first = positive[0]
        try:
            bar = barriers.find_dominating_super(first)
            overshoot = _confinement(trace, bar, m, t1)
            confined = overshoot <= CONFINE_TOL * m
            sup_mxi_after = max(s for t, s in zip(trace.times, trace.sup_m_over_xi)
                                if t >= t1)
            summary.update({
                "barrier_a": bar.a,
                "barrier_bound_m_over_xi": m * (bar.a + 1.0) / bar.a,
                "barrier_confinement": "pass" if confined else "fail",
                "barrier_overshoot": overshoot,
                "sup_m_over_xi_after_snapshot": sup_mxi_after,
            })
            if not confined:
                code = 2
        except (barriers.DerivativeBoundError, barriers.DominationError) as exc:
            summary["barrier_confinement"] = f"error: {exc}"
            code = 2
    csvio.write_summary(Path(out_dir) / "summary.txt", summary)
    return ScenarioResult(code, summary, [trace])


def scenario_dichotomy(cfg: ExperimentConfig, out_dir) -> ScenarioResult:
    """Matched pair: the configured (sub)critical mass must complete, the
    same initial shape at supercritical mass must blow up."""
    out = Path(out_dir)
    m_low = cfg.mass
    m_high = 10.0 * np.pi if m_low < 10.0 * np.pi else 1.25 * m_low
    trace_lo, sum_lo = run_simulation(cfg, out / "subcritical")
    cfg_hi = cfg.replace(mass=m_high)
    trace_hi, sum_hi = run_simulation(cfg_hi, out / "supercritical")
    ok = (trace_lo.verdict == VERDICT_COMPLETED
          and trace_hi.verdict == VERDICT_BLOWUP)
    summary = {
        "mass_low": m_low,
        "mass_high": m_high,
        "verdict_low": trace_lo.verdict,
        "verdict_high": trace_hi.verdict,
        "blowup_time_high": "" if trace_hi.blowup_time is None else trace_hi.blowup_time,
        "dichotomy": "pass" if ok else "fail",
    }
    csvio.write_summary(out / "summary.txt", summary)
    return ScenarioResult(0 if ok else 2, summary, [trace_lo, trace_hi])


def _newton_inits(m, grid, seed):
    """Ten varied initial profiles for the uniqueness probes."""
    inits = [radial.preset_profile("constant", m, grid)]
    for lam in (0.3, 0.7, 1.0, 2.0):
        inits.append(radial.preset_profile("pks", m, grid, lam=lam))
    for a in (0.1, 0.5, 2.0, 10.0):
        inits.append(radial.preset_profile("barrier", m, grid, a=a))
    rng = np.random.default_rng(seed)
    # smooth random monotone profile with the right endpoints
    xi = grid.nodes
    bump = rng.uniform(0.2, 1.0) * np.sin(np.pi * xi) ** 2
    values = m * (xi + bump * xi * (1 - xi))
    values = np.maximum.accumulate(np.clip(values, 0.0, m))
    values[0], values[-1] = 0.0, m
    inits.append(radial.MassProfile(grid, values, m))
    return inits


def run_uniqueness_probes(m, grid, seed, out_dir):
    """Newton from varied inits plus a parameter sweep; returns per-mass report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{m:.6g}"
    results = [steady.solve_stationary_newton(m, init)
               for init in _newton_inits(m, grid, seed)]
    rows = []
    for j, res in enumerate(results):
        for it, (norm, dist) in enumerate(zip(res.residual_norms, res.distances)):
            rows.append((f"init{j}", it, norm, dist))
    csvio.write_rows(out / f"newton_{tag}.csv",
                     ["init", "iteration", "residual_norm", "distance_to_linear"],
                     rows)
    best = min(results, key=lambda r: r.distance_to_linear)
    sweep = steady.uniqueness_sweep(best.profile)
    sweep_rows = []
    for a, margin in zip(sweep.super_parameters, sweep.super_margins):
        sweep_rows.append(("super", a, margin, sweep.conclusion))
    for b, margin in zip(sweep.sub_parameters, sweep.sub_margins):
        sweep_rows.append(("sub", b, margin, sweep.conclusion))
    csvio.write_rows(out / f"sweep_{tag}.csv",
                     ["family", "parameter", "min_margin", "verdict"], sweep_rows)
    all_conv = all(r.converged and r.distance_to_linear < 1e-8 * m for r in results)
    return {
        "mass": m,
        "all_converged": all_conv,
        "max_distance": max(r.distance_to_linear for r in results),
        "sweep_conclusion": sweep.conclusion,
        "sweep_final_gap": sweep.final_gap,
        "sweep_family_bound": sweep.family_gap_bound,
    }


def scenario_uniqueness(cfg: ExperimentConfig, out_dir,
                        masses=(np.pi, 2 * np.pi, 4 * np.pi, EIGHT_PI)) -> ScenarioResult:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = cfg.grid()
    summary = {}
    ok = True
    for m in masses:
        rep = run_uniqueness_probes(m, grid, cfg.seed, out)
        tag = f"{m:.6g}"
        summary[f"converged_{tag}"] = rep["all_converged"]
        summary[f"max_distance_{tag}"] = rep["max_distance"]
        summary[f"sweep_{tag}"] = rep["sweep_conclusion"]
        ok = ok and rep["all_converged"] and rep["sweep_conclusion"] == "sandwiched"
    summary["uniqueness"] = "pass" if ok else "fail"
    csvio.write_summary(out / "summary.txt", summary)
    return ScenarioResult(0 if ok else 2, summary, [])


def scenario_check(cfg: ExperimentConfig, out_dir) -> ScenarioResult:
    """Condensed invariant suite over every module; prints PASS/FAIL lines."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    checks = []
    rng = np.random.default_rng(cfg.seed)
    grid = Grid.regular(256)
    m = cfg.mass

    # barrier residual signs and FD agreement
    a_vals = np.geomspace(1e-3, 1e3, 10)
    xi = np.linspace(0.02, 0.98, 25)
    ok = True
    for a in a_vals:
        for mm in np.linspace(m / 4, min(m, EIGHT_PI), 4):
            closed = barriers.residual_super_closed_form(a, mm, xi)
            fd = barriers.apply_q(barriers.SuperBarrier(a, mm), mm, xi, method="fd")
            ok &= bool((closed > 0).all())
            ok &= bool((np.abs(closed - fd) <= 1e-6 * np.abs(closed)).all())
            ok &= bool((barriers.residual_sub_closed_form(a, mm, xi) < 0).all())
    checks.append(("barrier_residuals", ok))

    # transform round trip and moment identity
    fields = energy.random_radial_profiles(5, grid, cfg.seed)
    ok = True
    for field in fields:
        M = radial.mass_from_density(field, grid)
        lam = M.total_mass
        back = radial.density_from_mass(M)
        ok &= bool(np.abs(back.values - field.values).max() < 1e-2 * lam)
        lhs = radial.second_moment(M)
        r = grid.radii
        rhs, est = radial.trapezoid(2 * np.pi * field.values * r ** 3, r)
        _, est2 = radial.trapezoid(M.values, grid.nodes)
        ok &= bool(abs(lhs - rhs) <= 10 * (est + est2) + 1e-12 * lam)
    checks.append(("transform_identities", ok))

    # gradient bound and zero-average potential
    ok = True
    for field in fields:
        M = radial.mass_from_density(field, grid)
        lam = M.total_mass
        s = radial.potential_slope_from_mass(M)
        sup_mxi = np.max(M.values[1:] / grid.nodes[1:])
        ok &= bool(2 * np.pi * np.abs(s.values).max() <= sup_mxi + lam + 1e-9)
        v = radial.potential_from_slope(s)
        avg, est = radial.trapezoid(v.values, grid.nodes)
        ok &= bool(abs(avg) < max(est, 1e-12))
    checks.append(("potential_reconstruction", ok))

    # discrete comparison on one ordered pair
    low = barriers.SubBarrier(1.0, m).profile(grid)
    up = radial.preset_profile("barrier", m, grid, a=0.5)
    rep = solver.verify_discrete_comparison(low, up, m, 0.25, cfg.scheme(grid))
    checks.append(("discrete_comparison", rep.max_violation <= 1e-10 * m))

    # stationary fixed point
    line = radial.preset_profile("constant", m, grid)
    res = steady.stationary_residual(line)
    checks.append(("stationary_fixed_point", float(np.abs(res).max()) < 1e-10 * m))

    # log-HLS margins on a random corpus
    corpus = energy.random_radial_profiles(20, Grid.regular(512), cfg.seed + 1)
    margins = [energy.loghls_margin(field) for field in corpus]
    checks.append(("loghls_margin", min(margins) >= -1e-6))

    rows = [(name, "pass" if okay else "fail") for name, okay in checks]
    csvio.write_rows(out / "check.csv", ["check", "status"], rows)
    for name, okay in checks:
        print(f"{name}: {'PASS' if okay else 'FAIL'}")
    all_ok = all(okay for _, okay in checks)
    summary = dict(rows)
    summary["check"] = "pass" if all_ok else "fail"
    csvio.write_summary(out / "summary.txt", summary)
    return ScenarioResult(0 if all_ok else 2, summary, [])


def scenario_blowup(cfg: ExperimentConfig, out_dir) -> ScenarioResult:
    """Supercritical pipeline: detect blowup at two resolutions.

    Runs the configured concentrated profile at N=512 and N=1024 with a
    grid graded hard toward the origin, checks that both detect blowup at
    the innermost interior node, that detection time is insensitive to
    doubling the threshold (fine grid), and that the attained peak grows
    under refinement.
    """
    out = Path(out_dir)
    m = cfg.mass
    # the default density threshold exceeds what the monotone scheme can
    # represent at N=512 on this grading; use a level that both grids
    # cross while the collapse is still explosive
    threshold = cfg.scheme_params["u_blowup_threshold"]
    if threshold is None:
        threshold = 2e5 * m / np.pi
    base = cfg.replace(**{"grid.gamma": 3, "scheme.u_blowup_threshold": threshold})
    coarse = base.replace(**{"grid.n": 512})
    fine = base.replace(**{"grid.n": 1024})
    doubled = fine.replace(**{"scheme.u_blowup_threshold": 2.0 * threshold})

    trace_c, sum_c = run_simulation(coarse, out / "n512")
    trace_f, sum_f = run_simulation(fine, out / "n1024")
    trace_d, sum_d = run_simulation(doubled, out / "n1024_doubled")

    def peak_at_innermost(trace, child):
        return (trace.blowup_xi is not None
                and trace.blowup_xi == child.grid().nodes[1])

    ok = (trace_c.verdict == VERDICT_BLOWUP and trace_f.verdict == VERDICT_BLOWUP
          and trace_d.verdict == VERDICT_BLOWUP)
    checks = {}
    if ok:
        checks["peak_innermost"] = (peak_at_innermost(trace_c, coarse)
                                    and peak_at_innermost(trace_f, fine))
        shift = abs(trace_d.blowup_time - trace_f.blowup_time) / trace_f.blowup_time
        checks["threshold_doubling_shift"] = shift
        checks["threshold_doubling_ok"] = shift < 0.10
        # peak growth under refinement, compared at the common time at
        # which the fine grid first detects; a grid-converged (bounded)
        # solution would show matching peaks there
        t_star = trace_f.blowup_time
        idx = max(i for i, t in enumerate(trace_c.times) if t <= t_star)
        peak_coarse_common = trace_c.sup_u[idx]
        peak_fine_common = max(trace_f.sup_u)
        checks["peak_at_common_time_n512"] = peak_coarse_common
        checks["peak_at_common_time_n1024"] = peak_fine_common
        checks["peak_growth_ok"] = peak_fine_common > peak_coarse_common
        ok = (checks["peak_innermost"] and checks["threshold_doubling_ok"]
              and checks["peak_growth_ok"])
    summary = {
        "threshold": threshold,
        "verdict_n512": trace_c.verdict,
        "verdict_n1024": trace_f.verdict,
        "verdict_doubled": trace_d.verdict,
        "blowup_time_n512": "" if trace_c.blowup_time is None else trace_c.blowup_time,
        "blowup_time_n1024": "" if trace_f.blowup_time is None else trace_f.blowup_time,
        "blowup_time_doubled": "" if trace_d.blowup_time is None else trace_d.blowup_time,
        "peak_n512": max(trace_c.sup_u),
        "peak_n1024": max(trace_f.sup_u),
        "blowup": "pass" if ok else "fail",
    }
    summary.update({k: v for k, v in checks.items()})
    csvio.write_summary(out / "summary.txt", summary)
    return ScenarioResult(0 if ok else 2, summary, [trace_c, trace_f, trace_d])


_SCENARIOS = {
    "verify-global": scenario_verify_global,
    "dichotomy": scenario_dichotomy,
    "blowup": scenario_blowup,
    "uniqueness": scenario_uniqueness,
    "check": scenario_check,
}


def run_scenario(name: str, cfg: ExperimentConfig, out_dir=None) -> ScenarioResult:
    if name not in _SCENARIOS:
        raise UsageError(f"unknown scenario {name!r}; choose from {sorted(_SCENARIOS)}")
    return _SCENARIOS[name](cfg, out_dir or cfg.output_dir)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def run_sweep(cfg: ExperimentConfig, axis_key: str, axis_values, out_dir) -> Path:
    """Independent runs along one config axis, merged into sweep.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["index", "value", "verdict", "t_final", "final_sup_u",
              "blowup_time", "error"]
    rows = []
    for idx, value in enumerate(axis_values):
        child_dir = out / f"run_{idx}"
        try:
            child = cfg.replace(**{axis_key: value})
            trace, summary = run_simulation(child, child_dir)
            try:
                shown = parse_number(value)
            except (TypeError, ValueError):
                shown = str(value)
            rows.append((idx, shown, summary["verdict"],
                         summary["t_final"], summary["final_sup_u"],
                         summary["blowup_time"], ""))
        except (ConfigError, ValueError, radial.ProfileError) as exc:
            rows.append((idx, str(value), "", "", "", "", str(exc)))
    path = out / "sweep.csv"
    csvio.write_rows(path, header, rows)
    return path


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------

def _load_config(args, default_mass=None) -> ExperimentConfig:
    doc = {}
    if args.config:
        doc = Path(args.config).read_text()
        cfg = parse_config(doc)
    else:
        cfg = None
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if cfg is None:
        if default_mass is not None:
            overrides.setdefault("mass", default_mass)
        return parse_config(overrides)
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


def _add_config_options(sub):
    sub.add_argument("--config", help="path to a key=value config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override or supply a config entry")
    sub.add_argument("--out", help="output directory (overrides output.dir)")


def build_parser() -> _Parser:
    parser = _Parser(prog="chemodisk",
                     description="radial chemotaxis laboratory on the unit disk")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("simulate")
    _add_config_options(sp)

    sp = subs.add_parser("scenario")
    sp.add_argument("name",
                    help="verify-global | dichotomy | blowup | uniqueness | check")
    _add_config_options(sp)

    sp = subs.add_parser("barrier")
    sp.add_argument("--out", default="barrier_audit.csv")
    sp.add_argument("--na", type=int, default=30)
    sp.add_argument("--nm", type=int, default=8)
    sp.add_argument("--nxi", type=int, default=100)

    sp = subs.add_parser("steady")
    sp.add_argument("--mass", action="append", help="mass (repeatable), e.g. 8pi")
    _add_config_options(sp)

    sp = subs.add_parser("energy-audit")
    sp.add_argument("trace_dir", help="directory containing trace.csv")
    sp.add_argument("--out", help="output CSV (default <trace_dir>/energy_audit.csv)")

    sp = subs.add_parser("sweep")
    sp.add_argument("--axis", required=True, metavar="KEY=V1,V2,...",
                    help="config key and comma-separated values")
    _add_config_options(sp)

    return parser


def cmd_energy_audit(args) -> int:
    trace_dir = Path(args.trace_dir)
    data = csvio.read_trace(trace_dir / "trace.csv")
    t, F, D = data["t"], data["energy"], data["dissipation"]
    dfdt = np.gradient(F, t, edge_order=1)
    integral = radial.cumulative_trapezoid(D, t)
    residual = np.abs((F[0] - F) - integral)
    rows = list(zip(t, F, D, dfdt, residual))
    out = Path(args.out) if args.out else trace_dir / "energy_audit.csv"
    csvio.write_rows(out, ["t", "F", "D", "dFdt_est", "budget_residual"], rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "barrier":
            a_vals = np.geomspace(1e-3, 1e3, args.na)
            m_vals = np.linspace(EIGHT_PI / args.nm, EIGHT_PI, args.nm)
            xi_vals = (np.arange(1, args.nxi + 1)) / (args.nxi + 1)
            rows = barriers.audit_residuals(a_vals, m_vals, xi_vals)
            csvio.write_rows(args.out,
                             ["a", "m", "xi", "residual_closed", "residual_fd",
                              "abs_err"], rows)
            return 0
        if args.command == "energy-audit":
            return cmd_energy_audit(args)

        cfg = _load_config(args,
                           default_mass="8pi" if args.command == "steady" else None)
        out_dir = args.out or cfg.output_dir
        if args.command == "simulate":
            trace, summary = run_simulation(cfg, out_dir)
            csvio.write_summary(Path(out_dir) / "summary.txt", summary)
            return 2 if trace.verdict == VERDICT_STEP_FLOOR else 0
        if args.command == "scenario":
            return run_scenario(args.name, cfg, out_dir).exit_code
        if args.command == "steady":
            masses = [parse_number(tok) for tok in (args.mass or ["8pi"])]
            return scenario_uniqueness(cfg, out_dir, masses).exit_code
        if args.command == "sweep":
            if "=" not in args.axis:
                raise UsageError("--axis expects KEY=V1,V2,...")
            key, raw = args.axis.split("=", 1)
            values = [v for v in raw.split(",") if v.strip()]
            run_sweep(cfg, key.strip(), values, out_dir)
            return 0
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
