"""The block-evaluated uniqueness sweep against the per-parameter loop it
replaced, and the seed-0 Newton counts of the uniqueness probes at 8*pi."""

import numpy as np
import pytest

from chemodisk import cli, steady
from chemodisk.barriers import (SubBarrier, SuperBarrier, default_derivative_bound,
                                find_dominated_sub, find_dominating_super,
                                separation_margin)
from chemodisk.radial import EIGHT_PI, Grid, ProfileError, preset_profile
from chemodisk.steady import SweepReport, solve_stationary_newton, uniqueness_sweep

SAMPLES = 50


def reference_sweep(W, param_max=1e3):
    """The sweep one parameter at a time: a validated barrier profile and a
    separation_margin call per sampled parameter."""
    m = W.total_mass
    xi = W.grid.nodes
    C = max(default_derivative_bound(W), 2.0 * m)
    violated = None

    a0 = find_dominating_super(W, C).a
    a_values = np.geomspace(a0, param_max, SAMPLES)
    super_margins = np.full(SAMPLES, np.nan)
    for k, a in enumerate(a_values):
        bar = SuperBarrier(a, m).profile(W.grid)
        gap = bar.values - W.values
        if gap.min() < -1e-12 * m:
            violated = ("super", float(a), int(np.argmin(gap)))
            break
        super_margins[k] = separation_margin(bar, W)

    b0 = find_dominated_sub(W, C).b
    b_values = np.geomspace(b0, param_max, SAMPLES)
    sub_margins = np.full(SAMPLES, np.nan)
    if violated is None:
        for k, b in enumerate(b_values):
            bar = SubBarrier(b, m).profile(W.grid)
            gap = W.values - bar.values
            if gap.min() < -1e-12 * m:
                violated = ("sub", float(b), int(np.argmin(gap)))
                break
            sub_margins[k] = separation_margin(W, bar)

    conclusion = "sandwiched" if violated is None else "violated"
    final_gap = float(np.abs(W.values - m * xi).max())
    fam = float((SuperBarrier(param_max, m).value(xi) - m * xi).max()
                + (m * xi - SubBarrier(param_max, m).value(xi)).max())
    return SweepReport(a_values, super_margins, b_values, sub_margins,
                       conclusion, violated, final_gap, fam)


def assert_same_report(got, want):
    for name in ("super_parameters", "super_margins", "sub_parameters", "sub_margins"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    for name in ("conclusion", "violated_at", "final_gap", "family_gap_bound"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


def newton_root():
    grid = Grid.regular(512)
    return solve_stationary_newton(preset_profile("pks", EIGHT_PI, grid, lam=0.3)).profile


CASES = {
    "newton-root-512": (newton_root, None),
    "pks-0.3": (lambda: preset_profile("pks", EIGHT_PI, Grid.regular(512), lam=0.3),
                "super"),
    "sub-barrier-0.5": (lambda: SubBarrier(0.5, EIGHT_PI).profile(Grid.regular(512)),
                        "sub"),
    "flat-2**15": (lambda: preset_profile("constant", EIGHT_PI, Grid.regular(2 ** 15)),
                   None),
}


@pytest.mark.parametrize("case", CASES)
def test_sweep_matches_reference_loop(case):
    make, side = CASES[case]
    W = make()
    got = uniqueness_sweep(W)
    assert_same_report(got, reference_sweep(W))
    # each case covers the path it is named for
    if side is None:
        assert got.conclusion == "sandwiched"
    else:
        assert got.conclusion == "violated" and got.violated_at[0] == side
    if case == "sub-barrier-0.5":
        assert got.violated_at[1] == pytest.approx(0.651, abs=1e-3)
        assert got.violated_at[2] == 376
    if case == "flat-2**15":
        assert steady._SWEEP_BLOCK // (W.grid.n + 1) < SAMPLES  # several blocks


def corrupt(values, kind):
    if kind == "nan":
        values[..., 7] = np.nan
    elif kind == "end":
        values[..., -1] *= 2.0
    else:  # a dip below the previous node
        values[..., 9] = values[..., 8] - 1.0


def patch_row(monkeypatch, family, target, kind):
    """Corrupt the closed form of family at the one parameter target."""
    closed_form = family.closed_form

    def patched(p, m, xi):
        out = np.array(closed_form(p, m, xi))
        hit = np.asarray(p) == target
        if hit.ndim == 0:
            if hit:
                corrupt(out, kind)
        else:
            rows = hit[:, 0]
            block = out[rows]
            corrupt(block, kind)
            out[rows] = block
        return out

    monkeypatch.setattr(family, "closed_form", staticmethod(patched))


def violated_row(rep):
    side, param, _ = rep.violated_at
    params = rep.super_parameters if side == "super" else rep.sub_parameters
    return int(np.flatnonzero(params == param)[0])


@pytest.mark.parametrize("kind", ["nan", "end", "dip"])
@pytest.mark.parametrize("case,family,field,row", [
    ("newton-root-512", SuperBarrier, "super_parameters", 3),
    ("newton-root-512", SubBarrier, "sub_parameters", 3),
    ("pks-0.3", SuperBarrier, "super_parameters", "violated"),
    ("sub-barrier-0.5", SubBarrier, "sub_parameters", "violated"),
])
def test_bad_row_up_to_the_violation_raises_profile_error(monkeypatch, case, family,
                                                          field, row, kind):
    W = CASES[case][0]()
    rep = uniqueness_sweep(W)
    k = violated_row(rep) if row == "violated" else row
    patch_row(monkeypatch, family, getattr(rep, field)[k], kind)
    with pytest.raises(ProfileError) as want:
        reference_sweep(W)
    with pytest.raises(ProfileError) as got:
        uniqueness_sweep(W)
    assert str(got.value) == str(want.value)


def test_bad_row_past_the_violation_is_not_built(monkeypatch):
    W = preset_profile("pks", EIGHT_PI, Grid.regular(512), lam=0.3)
    rep = uniqueness_sweep(W)
    k = violated_row(rep)
    patch_row(monkeypatch, SuperBarrier, rep.super_parameters[k + 1], "nan")
    assert_same_report(uniqueness_sweep(W), reference_sweep(W))


def test_seed0_newton_counts_at_critical_mass():
    # frozen oracle: the uniqueness probes at 8*pi, n=512, seed 0
    results = [solve_stationary_newton(init)
               for init in cli._newton_inits(EIGHT_PI, Grid.regular(512), 0)]
    assert [r.iterations for r in results] == [1, 26, 6, 6, 5, 25, 6, 5, 4, 5]
    assert [r.shifted_steps for r in results] == [0, 18, 0, 0, 0, 17, 0, 0, 0, 0]
