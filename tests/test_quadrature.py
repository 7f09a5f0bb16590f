"""The package's own trapezoid sum against scipy's, and the import footprint.

``radial._trapezoid_value`` replaces ``scipy.integrate.trapezoid`` so that
importing chemodisk does not load scipy's integrate, special, optimize,
sparse, fft and spatial subpackages.  The replacement must agree with scipy
bit for bit, so every output the package writes stays byte-identical.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid as scipy_trapezoid

import chemodisk
from chemodisk import radial
from chemodisk.energy import audit_decay
from chemodisk.radial import Grid, preset_profile

SRC = Path(chemodisk.__file__).resolve().parents[1]

samples = st.builds(
    dict,
    n=st.integers(min_value=2, max_value=5000),
    gamma=st.floats(min_value=1.0, max_value=3.0),
    scale=st.floats(min_value=1e-8, max_value=1e8),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)


def nodes_and_values(n, gamma, scale, seed):
    """Graded nodes (i/(n-1))^gamma and signed random values of size scale."""
    rng = np.random.default_rng(seed)
    x = (np.arange(n) / (n - 1)) ** gamma
    y = scale * rng.standard_normal(n)
    return x, y


@settings(max_examples=300, deadline=None)
@given(samples)
def test_value_matches_scipy_bitwise(sample):
    x, y = nodes_and_values(**sample)
    assert radial._trapezoid_value(y, x) == float(scipy_trapezoid(y, x))


@settings(max_examples=100, deadline=None)
@given(samples.filter(lambda s: s["n"] >= 3))
def test_trapezoid_value_matches_scipy_bitwise(sample):
    x, y = nodes_and_values(**sample)
    value, _ = radial.trapezoid(y, x)
    assert value == float(scipy_trapezoid(y, x))


@pytest.mark.parametrize("n,gamma", [(16, 1.0), (512, 1.0), (4096, 2.0), (1024, 3.0)])
def test_callers_match_scipy_reference_bitwise(n, gamma):
    grid = Grid.regular(n, gamma)
    M = preset_profile("pks", 8.0 * np.pi, grid, lam=0.2)

    expected = M.total_mass - float(scipy_trapezoid(M.values, grid.nodes))
    assert radial.second_moment(M) == expected

    s = radial.potential_slope_from_mass(M)
    v = radial.cumulative_trapezoid(s.values, s.radii)
    expected_v = v - float(scipy_trapezoid(v, s.radii ** 2))
    assert np.array_equal(radial.potential_from_slope(s).values, expected_v)


@settings(max_examples=100, deadline=None)
@given(samples)
def test_audit_decay_matches_scipy_reference_bitwise(sample):
    t, D = nodes_and_values(**sample)
    D = np.abs(D)
    F = -np.cumsum(D)
    trace = SimpleNamespace(energy=list(F), dissipation=list(D), times=list(t))
    drop = float(F[0] - F[-1])
    integral = float(scipy_trapezoid(D, t))
    expected = abs(drop - integral) / (abs(drop) if drop != 0.0 else 1.0)
    audit = audit_decay(trace)
    assert audit.energy_drop == drop
    assert audit.budget_residual == expected


def test_short_input_needs_three_nodes_for_the_estimate():
    x, y = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    assert radial._trapezoid_value(y, x) == 1.5
    with pytest.raises(radial.ProfileError, match="at least 3 nodes"):
        radial.trapezoid(y, x)
    with pytest.raises(radial.ProfileError):
        Grid(np.array([0.0, 1.0]))


def test_import_leaves_only_scipy_linalg_loaded():
    # A fresh interpreter: pytest's own process may have imported scipy
    # subpackages already (this module imports scipy.integrate).  Of
    # scipy.linalg only the LAPACK extension that chemodisk._lapack loads on
    # its own may be there: not the package, whose __init__ pulls in most of
    # scipy.linalg and numpy.f2py.
    probe = (
        "import sys, chemodisk.cli\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.startswith('scipy.') or m.startswith('numpy.f2py'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC))).stdout.split()
    assert [name for name in out if name.startswith("scipy.linalg")] == ["scipy.linalg._flapack"]
    assert not [name for name in out if name.startswith("numpy.f2py")]
    loaded = {name.split(".")[1] for name in out if name.startswith("scipy.")}
    heavy = {"integrate", "special", "optimize", "sparse", "fft", "spatial"}
    assert loaded & heavy == set()
