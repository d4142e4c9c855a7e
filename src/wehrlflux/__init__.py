"""Entropy production and flux in driven-dissipative bosonic steady states.

Exact numerics for a single driven Kerr mode (Fock-space Liouvillian,
Husimi-function entropy rates) and a Gaussianized pipeline for the
driven-dissipative Dicke model, with a batch CLI front end.

The names below are imported from their submodule on first use (PEP 562),
so ``from wehrlflux import dicke_point`` or ``collapse_transform`` loads
numpy but not scipy, which only the Kerr solvers need, and
``fit_power_law`` (module ``divergence``) loads neither.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "collapse": ("collapse_transform",),
    "dicke_gaussian": (
        "DickeParams",
        "critical_coupling",
        "dicke_point",
        "drift_diffusion",
        "estimator_means",
        "gaussian_budget",
        "hamiltonian_quadratic_form",
        "hp_coefficients",
        "kink_detector",
        "mc_gaussian_budget",
        "mean_field_fixed_point",
        "solve_lyapunov",
    ),
    "divergence": ("fit_power_law",),
    "fock_algebra": (
        "DensityMatrix",
        "annihilation",
        "coherent_components",
    ),
    "kerr_model": (
        "BistabilityWindow",
        "SweepRecord",
        "bistability_window",
        "extrapolate_eps_c",
        "mean_field_curve",
        "photon_number_distribution",
        "recommended_cutoff",
        "steady_state_certified",
        "sweep",
    ),
    "liouvillian": (
        "KerrParams",
        "Superoperator",
        "build_kerr_liouvillian",
        "evolve",
        "evolve_to_stationarity",
        "liouvillian_gap",
        "steady_state",
    ),
    "budget": ("EntropyBudget",),
    "phase_space": (
        "PhaseSpaceField",
        "PhaseSpaceGrid",
        "PolarGrid",
        "auto_grid",
        "build_grid",
        "entropy_budget",
        "entropy_flux",
        "flux_split",
        "husimi_field",
        "pi_d",
        "pi_u_kerr",
        "polar_grid",
        "polar_husimi_field",
        "wehrl_entropy",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
