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

from ._lapack import dgtsv
from . import radial
from .radial import Grid, MassProfile, _check_mass_rows, _monotone
from .barriers import (SuperBarrier, SubBarrier, _margins, _q,
                       default_derivative_bound, find_dominating_super,
                       find_dominated_sub)

# Newton stops at max|Q(W)| or max|delta| below this times m
_NEWTON_TOL_REL = 1e-10
_NEWTON_MAX_ITER = 100
# sampled parameters per barrier family in the uniqueness sweep
_SWEEP_SAMPLES = 50
# most barrier values (parameters x nodes) the sweep holds at once: each
# block's float64 arrays are then at most 64 KiB, under glibc's 128 KiB mmap
# threshold, so they come from the heap and are reused across blocks and
# calls instead of being mapped and unmapped, a page fault per page, each time
_SWEEP_BLOCK = 2 ** 13


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
    return _NewtonOperator(W.grid, W.total_mass).residual(W.values)[0]


class _NewtonOperator:
    """The interior residual map of one grid and mass, with its Jacobian.

    Holds the grid factors once per solve: the D1 and D2 weights, which the
    residual and the Jacobian share, the bands -4 xi D2 and m xi.
    """

    def __init__(self, grid: Grid, m: float):
        st = grid.stencil
        xi = grid.nodes[1:-1]
        self._st = st
        self._d1 = st.d1_xi
        self._neg4xi = -4.0 * xi
        self._mxi = m * xi
        self._bands = tuple(self._neg4xi * c for c in st.d2)

    def residual(self, w):
        """(Q(W), W') at the interior nodes."""
        d1 = self._d1.interior(w)
        d2 = self._st.d2_interior(w)
        return _q(w[1:-1], d1, d2, self._neg4xi, self._mxi), d1

    def jacobian(self, w, d1):
        """(sub, diagonal, super) bands of the Jacobian at W, as dgtsv takes
        them; d1 is W' from residual(w)."""
        D1 = self._d1
        lo2, mid2, hi2 = self._bands
        drift = (self._mxi - w[1:-1]) / np.pi
        diag = mid2 + drift * D1.mid - d1 / np.pi
        lower = lo2[1:] + drift[1:] * D1.lo[1:]
        upper = hi2[:-1] + drift[:-1] * D1.hi[:-1]
        return lower, diag, upper


def solve_stationary_newton(init: MassProfile) -> NewtonResult:
    """Damped Newton on the discretized stationary problem at init's mass m.

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
    m = init.total_mass
    op = _NewtonOperator(grid, m)
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
        trial_res = op.residual(trial)
        return trial, trial_res, float(np.abs(trial_res[0]).max())

    def accept(trial, trial_res, norm):
        """Record an accepted iterate; return it with its residual and W'."""
        norms.append(norm)
        dists.append(float(np.abs(trial - m * xi).max()))
        return trial, *trial_res

    start = op.residual(w)
    w, res, d1 = accept(w, start, float(np.abs(start[0]).max()))
    it = 0
    shift = 0.0
    shifted_steps = 0
    slow = 0
    converged = norms[-1] < tol
    while not converged and it < _NEWTON_MAX_ITER:
        lower, diag, upper = op.jacobian(w, d1)
        _, _, _, delta, info = dgtsv(lower, diag + shift, upper, -res)
        if info == 0 and shift and np.abs(delta).max() <= tol:
            _, _, _, full, info = dgtsv(lower, diag, upper, -res)
            if info == 0 and np.abs(full).max() <= tol:
                shift, delta = 0.0, full
        if info > 0:  # singular (shifted) Jacobian
            break
        it += 1
        if not shift and np.abs(delta).max() <= tol:  # false if non-finite
            w, res, d1 = accept(*step_to(delta))
            converged = True
            break
        if shift:
            trial, trial_res, norm = step_to(delta)
            if np.isfinite(norm) and norm <= 2.0 * norms[-1]:
                shift *= norm / norms[-1]
                shift = shift if shift >= 1e-12 else 0.0
                shifted_steps += 1
                w, res, d1 = accept(trial, trial_res, norm)
            else:
                shift *= 2.0
        else:
            lam = 1.0
            improved = False
            for _ in range(40):  # a non-finite update fails every trial
                trial, trial_res, norm = step_to(lam * delta)
                if np.isfinite(norm) and norm < norms[-1]:
                    slow = slow + 1 if norm > 0.9 * norms[-1] else 0
                    w, res, d1 = accept(trial, trial_res, norm)
                    improved = True
                    break
                lam *= 0.5
            if not improved or slow >= 3:
                slow = 0
                shift = norms[-1] / m
        converged = norms[-1] < tol
    # monotone repair before packaging (Newton can dip microscopically)
    w = _monotone(w, m)
    profile = MassProfile(grid, w, m)
    dist = float(np.abs(w - m * xi).max())
    return NewtonResult(profile, converged, it, tuple(norms), tuple(dists),
                        dist, shifted_steps)


def uniqueness_sweep(W: MassProfile, param_max: float = 1e3) -> SweepReport:
    """Slide both barrier families from their envelope seeds out to param_max.

    The continuum argument proves the admissible parameter set is all of
    (0, infinity); numerically we sample 50 log-spaced parameters per family
    and, at each, check the nodewise ordering and record the separation
    margin (the formula of separation_margin), stopping at the first
    violated parameter; the sub family is swept only if the super family
    holds.  Each family is evaluated from its closed form in blocks of
    parameters x nodes of at most 2**20 values; every barrier profile up to
    and including the first violated one is checked against MassProfile's
    invariants, and a bad one raises the ProfileError that building it as a
    MassProfile would.  A sandwiched conclusion pins W to within the family
    gap at the sampled extremes.
    """
    m = W.total_mass
    xi = W.grid.nodes
    C = max(default_derivative_bound(W), 2.0 * m)

    a_values = np.geomspace(find_dominating_super(W, C).a, param_max, _SWEEP_SAMPLES)
    super_margins, violated = _sweep_family(SuperBarrier, a_values, W, above=True)
    b_values = np.geomspace(find_dominated_sub(W, C).b, param_max, _SWEEP_SAMPLES)
    sub_margins = np.full(_SWEEP_SAMPLES, np.nan)
    if violated is None:
        sub_margins, violated = _sweep_family(SubBarrier, b_values, W, above=False)

    conclusion = "sandwiched" if violated is None else "violated"
    final_gap = float(np.abs(W.values - m * xi).max())
    fam = float((SuperBarrier(param_max, m).value(xi) - m * xi).max()
                + (m * xi - SubBarrier(param_max, m).value(xi)).max())
    return SweepReport(a_values, super_margins, b_values, sub_margins,
                       conclusion, violated, final_gap, fam)


def _sweep_family(family, params, W: MassProfile, above: bool):
    """Margins of one barrier family against W, and (side, parameter, node)
    of its first violated parameter, or None.

    above: the family lies above W (SuperBarrier) or below it (SubBarrier).
    Margins past the first violation stay NaN.
    """
    m = W.total_mass
    xi = W.grid.nodes
    w_in = W.values[1:-1]
    margins = np.full(params.size, np.nan)
    rows = max(1, _SWEEP_BLOCK // xi.size)
    for start in range(0, params.size, rows):
        block = params[start:start + rows]
        # a non-finite row fails _check_mass_rows if it is reached, and is
        # never built if it lies past the first violation
        with np.errstate(all="ignore"):
            bars = family.closed_form(block[:, None], m, xi)
            # the boundary values of the profiles are pinned to 0 and m,
            # where the gap is 0, so only interior nodes can fail the ordering
            gap = bars[:, 1:-1] - w_in if above else w_in - bars[:, 1:-1]
        bad = gap.min(axis=1) < -1e-12 * m
        k = int(np.argmax(bad)) if bad.any() else block.size
        _check_mass_rows(bars[:k + 1], m)
        margins[start:start + k] = _margins(gap[:k], xi)
        if k < block.size:
            side = "super" if above else "sub"
            return margins, (side, float(block[k]), int(np.argmin(gap[k])) + 1)
    return margins, None


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
