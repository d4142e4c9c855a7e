"""The Kerr entropy budget on a tensor grid, the polar pipeline's oracle.

``tensor_budget`` evaluates Q with ``phase_space.husimi_field`` on a
uniform grid (``auto_grid`` or ``build_grid``) and puts the budget
together from the public integrals, as ``entropy_budget`` does on its
polar grid.
"""

import math

from wehrlflux.budget import EntropyBudget, KerrParams
from wehrlflux.fock_algebra import DensityMatrix, mean_amplitude
from wehrlflux.phase_space import (
    PhaseSpaceGrid,
    flux_split,
    husimi_field,
    pi_d,
    pi_u_kerr,
    wehrl_entropy,
)


def tensor_budget(rho: DensityMatrix, p: KerrParams, grid: PhaseSpaceGrid) -> EntropyBudget:
    field_ = husimi_field(rho, grid)
    alpha = mean_amplitude(rho) / math.sqrt(p.N)
    phi_ext, phi_q = flux_split(rho, p.kappa, p.N)
    return EntropyBudget(
        S=wehrl_entropy(field_),
        Phi_ext=phi_ext,
        Phi_q=phi_q,
        Pi_u=pi_u_kerr(field_, p.u, p.N),
        Pi_d=pi_d(field_, p.kappa, alpha, p.N),
        alpha=alpha,
        mass=field_.mass,
    )
