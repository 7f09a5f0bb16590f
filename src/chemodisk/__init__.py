"""Numerical laboratory for radial chemotaxis dynamics on the unit disk.

Implements the mass-distribution transform of the parabolic-elliptic
chemotaxis system, a monotone comparison-preserving solver, closed-form
super/subsolution families with residual audits, free-energy dissipation
checks, and a stationary-uniqueness sweep, all reachable from the
``chemodisk`` command line.
"""

from .radial import (EIGHT_PI, Grid, MassProfile, ProfileError, RadialField,
                     density_from_mass, mass_from_density,
                     potential_from_slope, potential_slope_from_mass,
                     preset_profile, second_moment)
from .barriers import (SubBarrier, SuperBarrier, apply_q, find_dominated_sub,
                       find_dominating_super, residual_sub_closed_form,
                       residual_super_closed_form, separation_margin)
from .solver import (SchemeConfig, SimulationTrace, bound_gradient_v, cfl_limit,
                     resume, simulate, step, verify_discrete_comparison)
from .energy import (audit_decay, dissipation, energy_report, free_energy,
                     loghls_margin, random_radial_profiles)
from .steady import (longtime_convergence, solve_stationary_newton,
                     stationary_residual, uniqueness_sweep)
from .config import ExperimentConfig, parse_config

__version__ = "0.1.0"
