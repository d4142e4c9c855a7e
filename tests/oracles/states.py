"""Reference states and operators on the truncated Fock basis.

The dense ladder operator a, with a |n> = sqrt(n) |n-1>, the standard
states as validated ``DensityMatrix`` objects, and the von Neumann
entropy and trace distance, each from one dense eigendecomposition.
"""

import numpy as np

from wehrlflux.errors import DimensionError, StateValidationError
from wehrlflux.fock_algebra import DensityMatrix, coherent_components


def annihilation(n_max: int) -> np.ndarray:
    """Ladder operator a as a dense matrix, entry (n-1, n) = sqrt(n)."""
    if n_max < 2:
        raise DimensionError(f"n_max must be >= 2, got {n_max}")
    return np.diag(np.sqrt(np.arange(1, n_max)), 1).astype(complex)


def vacuum(dim: int) -> DensityMatrix:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return DensityMatrix(dim, rho)


def fock(dim: int, n: int) -> DensityMatrix:
    if not 0 <= n < dim:
        raise DimensionError(f"Fock level {n} outside [0, {dim})")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return DensityMatrix(dim, rho)


def coherent(mu: complex, dim: int) -> DensityMatrix:
    c = coherent_components(mu, dim)
    c = c / np.linalg.norm(c)
    return DensityMatrix(dim, np.outer(c, c.conj()))


def thermal(nbar: float, dim: int) -> DensityMatrix:
    if nbar < 0:
        raise StateValidationError("mean occupation must be >= 0")
    n = np.arange(dim)
    p = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar) if nbar > 0 else (n == 0) * 1.0
    p = p / p.sum()
    return DensityMatrix(dim, np.diag(p.astype(complex)))


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(dim, np.eye(dim, dtype=complex) / dim)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho ln rho) in nats, truncation noise clipped at zero."""
    lam = np.linalg.eigvalsh((rho.entries + rho.entries.conj().T) / 2)
    lam = np.clip(lam.real, 0.0, None)
    lam = lam[lam > 0]
    return float(-(lam * np.log(lam)).sum())


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """(1/2) ||rho1 - rho2||_1."""
    if rho1.dim != rho2.dim:
        raise DimensionError("dimension mismatch")
    diff = rho1.entries - rho2.entries
    lam = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return 0.5 * float(np.abs(lam).sum())
