"""Entropy production and flux in driven-dissipative bosonic steady states.

Exact numerics for a single driven Kerr mode (Fock-space Liouvillian,
Husimi-function entropy rates) and a Gaussianized pipeline for the
driven-dissipative Dicke model, with a batch CLI front end.
"""

__version__ = "0.1.0"

from .dicke_gaussian import (
    DickeParams,
    critical_coupling,
    dicke_point,
    divergence_scan,
    drift_diffusion,
    gaussian_budget,
    hamiltonian_quadratic_form,
    hp_coefficients,
    kink_detector,
    mc_gaussian_budget,
    mean_field_fixed_point,
    solve_lyapunov,
)
from .fock_algebra import (
    DensityMatrix,
    annihilation,
    coherent_components,
)
from .kerr_model import (
    BistabilityWindow,
    SweepRecord,
    bistability_window,
    collapse_transform,
    estimate_eps_c,
    extrapolate_eps_c,
    mean_field_curve,
    recommended_cutoff,
    steady_state_certified,
    sweep,
)
from .liouvillian import (
    KerrParams,
    Superoperator,
    build_kerr_liouvillian,
    evolve,
    evolve_to_stationarity,
    liouvillian_gap,
    steady_state,
)
from .phase_space import (
    EntropyBudget,
    PhaseSpaceField,
    PhaseSpaceGrid,
    auto_grid,
    build_grid,
    entropy_budget,
    entropy_flux,
    flux_split,
    husimi_field,
    pi_d,
    pi_u_kerr,
    wehrl_entropy,
)
