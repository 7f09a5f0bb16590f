"""Stationary problem, Newton solver, and the two-sided uniqueness sweep.

For mass m <= 8*pi the only radial stationary profile is the linear one
W = m*xi (constant density m/pi).  The sweep squeezes a candidate W
between the concave and convex barrier families at log-spaced parameters,
mirroring the open-closed continuation argument with explicit separation
margins at every sampled parameter.  Newton finds the candidates; where its
line search stalls it takes pseudo-transient steps, not solver runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from . import radial
from .radial import Grid, MassProfile, second_derivative_interior
from .barriers import (SuperBarrier, SubBarrier, default_derivative_bound,
                       find_dominating_super, find_dominated_sub,
                       separation_margin, stationary_operator)

# Newton stops at max|Q(W)| or max|delta| below this times m
_NEWTON_TOL_REL = 1e-10
_NEWTON_MAX_ITER = 100
# sampled parameters per barrier family in the uniqueness sweep
_SWEEP_SAMPLES = 50


@dataclass(frozen=True)
class NewtonResult:
    profile: MassProfile
    converged: bool
    iterations: int
    residual_norms: tuple
    distances: tuple  # sup |W_k - m*xi| per accepted iterate
    distance_to_linear: float
    shifted_steps: int  # accepted pseudo-transient (shifted) steps


@dataclass(frozen=True)
class SweepReport:
    super_parameters: np.ndarray
    super_margins: np.ndarray
    sub_parameters: np.ndarray
    sub_margins: np.ndarray
    conclusion: str  # "sandwiched" or "violated"
    violated_at: tuple | None  # (side, parameter, node)
    final_gap: float  # measured sup |W - m*xi|
    family_gap_bound: float  # barrier-family truncation bound at the extremes


@dataclass(frozen=True)
class LongtimeReport:
    times: np.ndarray
    density_sup_distance: np.ndarray
    potential_sup: np.ndarray
    decay_rate: float


def stationary_residual(W: MassProfile) -> np.ndarray:
    """Q applied nodewise at interior nodes via the grid's stencil."""
    return _residual_arrays(W.values, W.grid, W.total_mass)


def _residual_arrays(w, grid: Grid, m):
    xi = grid.nodes
    d1 = grid.stencil.d1_xi(w)[1:-1]
    d2 = second_derivative_interior(w, xi)
    return stationary_operator(w[1:-1], d1, d2, m, xi[1:-1])


def _jacobian_banded(w, grid: Grid, m):
    """Banded Jacobian of the interior residual map (interior unknowns only)."""
    st = grid.stencil
    cA1, cB1, cC1 = st.d1_xi.lo, st.d1_xi.mid, st.d1_xi.hi
    cA2, cB2, cC2 = st.d2
    d1 = st.d1_xi(w)[1:-1]
    xi_in = grid.nodes[1:-1]
    drift = (m * xi_in - w[1:-1]) / np.pi
    diag = -4.0 * xi_in * cB2 + drift * cB1 - d1 / np.pi
    lower = -4.0 * xi_in * cA2 + drift * cA1
    upper = -4.0 * xi_in * cC2 + drift * cC1
    ab = np.zeros((3, grid.n - 1))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return ab


def solve_stationary_newton(m: float, init: MassProfile) -> NewtonResult:
    """Damped Newton on the discretized stationary problem.

    Endpoints stay pinned at 0 and m; iterates are clipped to [0, m] and
    the step is halved until the residual norm decreases.  When the line
    search stalls, shifted steps ``(J + s*I) delta = -R`` follow the flow
    ``M_t = -Q(M)`` from ``s = max|R|/m``; s doubles on a step that doubles
    ``|R|``, else scales by ``|R_new|/|R_old|``, and Newton resumes at s <
    1e-12 (pseudo-transient continuation, Kelley & Keyes 1998; switched
    evolution relaxation, Mulder & van Leer 1985).  Non-convergence after
    100 iterations is reported in the result, not raised.

    Two tests stop the iteration with ``converged=True``:

    - residual: ``max|Q(W)| < 1e-10*m``;
    - step size: the full Newton update satisfies ``max|delta| <=
      1e-10*m``.  The update is Newton's estimate of the iterate's error,
      so it is taken whole (and clipped to [0, m]) and the error left is
      O(|delta|^2) plus rounding.  A small shifted update does not count.

    The residual test alone fails on fine grids: Q contains 4*xi*W'' with
    weights of order 1/h^2, so its rounding floor grows like n^2.  At
    n=512 even the exact discrete root m*xi has a residual above
    ``1e-10*m``, and the line search can no longer decrease it.
    """
    grid = init.grid
    xi = grid.nodes
    w = np.clip(init.values.copy(), 0.0, m)
    w[0] = 0.0
    w[-1] = m
    tol = _NEWTON_TOL_REL * m
    norms = []
    dists = []

    def step_to(step):
        trial = w.copy()
        trial[1:-1] += step
        np.clip(trial, 0.0, m, out=trial)
        trial_res = _residual_arrays(trial, grid, m)
        return trial, trial_res, float(np.abs(trial_res).max())

    def accept(trial, trial_res, norm):
        norms.append(norm)
        dists.append(float(np.abs(trial - m * xi).max()))
        return trial, trial_res

    res = _residual_arrays(w, grid, m)
    w, res = accept(w, res, float(np.abs(res).max()))
    it = 0
    shift = 0.0
    shifted_steps = 0
    slow = 0
    converged = norms[-1] < tol
    while not converged and it < _NEWTON_MAX_ITER:
        ab = _jacobian_banded(w, grid, m)
        try:
            delta = solve_banded((1, 1), ab + [[0.0], [shift], [0.0]], -res,
                                 check_finite=False)
            if shift and np.abs(delta).max() <= tol:
                full = solve_banded((1, 1), ab, -res, check_finite=False)
                if np.abs(full).max() <= tol:
                    shift, delta = 0.0, full
        except np.linalg.LinAlgError:
            break
        it += 1
        if not shift and np.abs(delta).max() <= tol:  # false if non-finite
            w, res = accept(*step_to(delta))
            converged = True
            break
        if shift:
            trial, trial_res, norm = step_to(delta)
            if np.isfinite(norm) and norm <= 2.0 * norms[-1]:
                shift *= norm / norms[-1]
                shift = shift if shift >= 1e-12 else 0.0
                shifted_steps += 1
                w, res = accept(trial, trial_res, norm)
            else:
                shift *= 2.0
        else:
            lam = 1.0
            improved = False
            for _ in range(40):  # a non-finite update fails every trial
                trial, trial_res, norm = step_to(lam * delta)
                if np.isfinite(norm) and norm < norms[-1]:
                    slow = slow + 1 if norm > 0.9 * norms[-1] else 0
                    w, res = accept(trial, trial_res, norm)
                    improved = True
                    break
                lam *= 0.5
            if not improved or slow >= 3:
                slow = 0
                shift = norms[-1] / m
        converged = norms[-1] < tol
    # monotone repair before packaging (Newton can dip microscopically)
    w = np.maximum.accumulate(np.clip(w, 0.0, m))
    w[0], w[-1] = 0.0, m
    profile = MassProfile(grid, w, m)
    dist = float(np.abs(w - m * xi).max())
    return NewtonResult(profile, converged, it, tuple(norms), tuple(dists),
                        dist, shifted_steps)


def uniqueness_sweep(W: MassProfile, param_max: float = 1e3) -> SweepReport:
    """Slide both barrier families from their envelope seeds out to param_max.

    The continuum argument proves the admissible parameter set is all of
    (0, infinity); numerically we sample 50 log-spaced parameters per family,
    check the nodewise ordering at each, and track separation margins.  A sandwiched
    conclusion pins W to within the family gap at the sampled extremes.
    """
    m = W.total_mass
    xi = W.grid.nodes
    C = max(default_derivative_bound(W), 2.0 * m)
    violated = None

    a0 = find_dominating_super(W, C).a
    a_values = np.geomspace(a0, param_max, _SWEEP_SAMPLES)
    super_margins = np.full(_SWEEP_SAMPLES, np.nan)
    for k, a in enumerate(a_values):
        bar = SuperBarrier(a, m).profile(W.grid)
        gap = bar.values - W.values
        if gap.min() < -1e-12 * m:
            violated = ("super", float(a), int(np.argmin(gap)))
            break
        super_margins[k] = separation_margin(bar, W)

    b0 = find_dominated_sub(W, C).b
    b_values = np.geomspace(b0, param_max, _SWEEP_SAMPLES)
    sub_margins = np.full(_SWEEP_SAMPLES, np.nan)
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


def longtime_convergence(trace) -> LongtimeReport:
    """Snapshot-wise sup distances to the flat state, with a fitted rate."""
    m = trace.total_mass
    times, du, dv = [], [], []
    for t, prof in trace.snapshots:
        u = radial.density_from_mass(prof)
        v = radial.potential_from_slope(radial.potential_slope_from_mass(prof))
        times.append(t)
        du.append(float(np.abs(u.values - m / np.pi).max()))
        dv.append(float(np.abs(v.values).max()))
    times = np.asarray(times)
    du = np.asarray(du)
    dv = np.asarray(dv)
    rate = float("nan")
    tail = (times > 0.5 * times[-1]) & (du > 0)
    if tail.sum() >= 2:
        slope = np.polyfit(times[tail], np.log(du[tail]), 1)[0]
        rate = float(-slope)
    return LongtimeReport(times, du, dv, rate)
