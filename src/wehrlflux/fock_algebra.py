"""Truncated-Fock-space algebra.

Coherent states, density matrices and their moments on a Hilbert space
truncated at ``n_max`` Fock levels, plus the column-stacking
vectorization helpers used by the superoperator solvers.

Conventions:
    a |n> = sqrt(n) |n-1>,   coherent components c_n = e^{-|mu|^2/2} mu^n / sqrt(n!).

Nothing in the package builds an operator.  The Liouvillian is assembled
from its closed-form bands, and the moments the pipeline needs are read
off rho's diagonals: <a^dag a> = sum_n n rho_nn and
<a> = sum_n sqrt(n) rho_{n,n-1}.  The module needs numpy alone; the
reference ladder matrix and standard states live beside the tests
(``tests/oracles/states.py``).

All factorials are evaluated as a table of ``math.lgamma(n + 1)`` over
the ``dim`` levels, so coherent amplitudes stay finite well past n = 170.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StateValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Coherent states
# ---------------------------------------------------------------------------

def coherent_components(mu: complex | np.ndarray, dim: int) -> np.ndarray:
    """Truncated coherent-state amplitudes c_n = e^{-|mu|^2/2} mu^n / sqrt(n!).

    ``mu`` is a number or an array of nodes; the result has shape
    (dim,) + shape(mu), one column of components per node.  The magnitude
    is summed in log space, n ln|mu| - ln(n!)/2 - |mu|^2/2, so only
    components below ~1e-308 underflow (exp(-|mu|^2/2) alone underflows
    beyond |mu| ~ 38, and |mu|^n overflows long before n! does).  The
    phase e^{i n arg mu} is the n-th power of e^{i arg mu}, taken row by
    row: n roundoffs of an ulp each, at a tenth of the cost of a complex
    exponential per entry.  It is exactly 1 on the positive real axis, and
    mu = 0 gives the vacuum column exactly.
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    mu = np.asarray(mu, dtype=complex)
    r = np.abs(mu)
    n = np.arange(dim).reshape((dim,) + (1,) * mu.ndim)
    log_factorial = np.reshape([math.lgamma(k + 1.0) for k in range(dim)], n.shape)
    # at mu = 0, ln 0 = -inf empties every row but the first, where 0 * -inf
    # is nan; that row is exp(-|mu|^2/2), bit for bit the sum's value elsewhere
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.exp(np.log(r) * n - 0.5 * log_factorial - 0.5 * r ** 2)
    mag[0] = np.exp(-0.5 * r ** 2)
    c = np.empty(mag.shape, dtype=complex)
    c[0] = 1.0
    c[1:] = np.exp(1j * np.angle(mu))
    for k in range(2, dim):
        c[k] *= c[k - 1]
    c *= mag
    return c


# ---------------------------------------------------------------------------
# Density matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix on the truncated Fock basis."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = self.entries
        if rho.shape != (self.dim, self.dim):
            raise DimensionError(
                f"entries shape {rho.shape} does not match dim {self.dim}"
            )
        if not (np.all(np.isfinite(rho.real)) and np.all(np.isfinite(rho.imag))):
            raise StateValidationError("density matrix entries must be finite")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > HERMITICITY_TOL:
            raise StateValidationError(f"hermiticity violation {herm:.3e}")
        tr = np.trace(rho)
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateValidationError(f"trace deviates from 1 by {abs(tr-1.0):.3e}")
        lam_min = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
        if lam_min < -POSITIVITY_TOL:
            raise StateValidationError(f"negative eigenvalue {lam_min:.3e}")


def mean_photon_number(rho: DensityMatrix) -> float:
    """<a^dag a> = sum_n n rho_nn."""
    return float(np.dot(np.arange(rho.dim), np.diagonal(rho.entries).real))


def mean_amplitude(rho: DensityMatrix) -> complex:
    """<a> = tr(a rho) = sum_n sqrt(n) rho_{n,n-1}."""
    sqrt_n = np.sqrt(np.arange(1, rho.dim))
    return complex(np.dot(sqrt_n, np.diagonal(rho.entries, -1)))


# ---------------------------------------------------------------------------
# Vectorization (column stacking: vec(A X B) = (B^T kron A) vec(X))
# ---------------------------------------------------------------------------

def vectorize(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat, dtype=complex).reshape(-1, order="F")

def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(vec, dtype=complex).reshape((dim, dim), order="F")
