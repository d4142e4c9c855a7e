"""Lindblad generator of the driven Kerr mode and its steady-state solvers.

The generator acts on column-stacked density matrices,
vec(A X B) = (B^T kron A) vec(X), so

    L = -i (I kron H - H^T kron I)
        + 2 kappa ( conj(a) kron a - 1/2 I kron a^dag a - 1/2 (a^dag a)^T kron I )

with the rotating-frame Hamiltonian

    H = Delta a^dag a + (u / 2N) a^dag a^dag a a + i eps sqrt(N) (a^dag - a).

The steady state solves L x = 0 with one row of L replaced by the trace
functional, tr x = 1, through a sparse LU of that bordered matrix; it is
hermitized and normalized afterwards.  The spectral gap comes from one
Arnoldi pass on the inverse of the same bordered matrix restricted to
trace-free operators, where the null mode is absent.  The LU is computed
once per generator (``Superoperator.bordered_lu``) and shared by both
answers.  Its column ordering is minimum degree on B^T + B, which suits
the nearly symmetric pattern of a Lindblad generator, and it pivots with
a threshold rather than always on the largest entry, so the ordering
mostly survives the numerical factorization.  A fixed-step RK4
propagator provides an independent oracle: the null space of L is exactly
a fixed point of the RK4 map, so long-time propagation converges to the
same state without a step-size bias.

Settings that every caller leaves alone are module constants:
``LU_ORDERING``, ``LU_PIVOT_THRESHOLD`` and ``GAP_EIGENVALUES`` for the
solvers, ``POWER_ITERATIONS``, ``TRACE_DRIFT_TOL`` and
``STATIONARITY_T_MAX`` for the RK4 oracle.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, splu
from scipy.sparse.linalg import norm as spnorm

from .errors import (
    CutoffError,
    DegenerateSteadyStateError,
    SolverConvergenceError,
    StateValidationError,
    StepSizeError,
)
from .fock_algebra import (
    DensityMatrix,
    annihilation,
    unvectorize,
    vectorize,
)

log = logging.getLogger(__name__)

NULL_RESIDUAL_TOL = 1e-10
# Column ordering and pivot threshold of the bordered LU.  Every term of
# the generator except the jump term conj(a) kron a has a symmetric
# pattern, so minimum degree on B^T + B gives far less fill than scipy's
# default COLAMD (1.43M against 2.32M nonzeros at N=30 near eps_c), and
# threshold pivoting keeps most of that ordering's diagonal pivots.  Some
# pivoting is needed: with none (threshold 0) the N=40 gap near eps_c
# comes out negative.
LU_ORDERING = "MMD_AT_PLUS_A"
LU_PIVOT_THRESHOLD = 0.1
GAP_EIGENVALUES = 12
POWER_ITERATIONS = 30
TRACE_DRIFT_TOL = 1e-9
STATIONARITY_T_MAX = 1e5


@dataclass(frozen=True)
class KerrParams:
    """Parameters of the driven Kerr mode.

    delta: detuning; u > 0: nonlinearity; kappa > 0: loss rate;
    eps >= 0: intensive pump amplitude (physical pump is eps * sqrt(N));
    N >= 1: thermodynamic scale parameter.
    """

    delta: float
    u: float
    kappa: float
    eps: float
    N: int

    def __post_init__(self):
        vals = (self.delta, self.u, self.kappa, self.eps)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("Kerr parameters must be finite")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.u <= 0:
            raise ValueError(f"u must be > 0, got {self.u}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")

    def with_drive(self, eps: float, N: int | None = None) -> "KerrParams":
        return replace(self, eps=eps, N=self.N if N is None else N)

    @property
    def pump(self) -> float:
        """Extensive pump amplitude eps * sqrt(N)."""
        return self.eps * math.sqrt(self.N)


@dataclass(frozen=True)
class Superoperator:
    """Sparse generator on the vectorized space of dimension n_max^2."""

    n_max: int
    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.n_max ** 2

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action on a density matrix, returned as a matrix."""
        return unvectorize(self.matrix @ vectorize(rho), self.n_max)

    def residual(self, rho: DensityMatrix) -> float:
        """Frobenius norm of L(rho)."""
        return float(np.linalg.norm(self.matrix @ vectorize(rho.entries)))

    @functools.cached_property
    def bordered_lu(self):
        """Sparse LU of the trace-bordered generator, factored on first use.

        ``steady_state`` and ``liouvillian_gap`` share it, so a generator
        is factored once; the factors live as long as the generator.
        """
        return _bordered_lu(self)


def build_kerr_liouvillian(
    p: KerrParams, n_max: int, enforce_cutoff: bool = True
) -> Superoperator:
    """Assemble the sparse Lindblad generator for the driven Kerr mode."""
    if n_max < 2:
        raise CutoffError(f"n_max must be >= 2, got {n_max}")
    if enforce_cutoff:
        from .kerr_model import recommended_cutoff  # deferred: avoids module cycle

        rec = recommended_cutoff(p)
        if n_max < rec:
            raise CutoffError(
                f"n_max = {n_max} below recommended cutoff {rec} for {p}",
                recommended=rec,
            )
    a = annihilation(n_max)
    ad = a.conj().T.tocsr()
    n_op = (ad @ a).tocsr()
    kerr = (ad @ ad @ a @ a).tocsr()
    H = (p.delta * n_op + (p.u / (2.0 * p.N)) * kerr + 1j * p.pump * (ad - a)).tocsr()
    eye = sp.identity(n_max, format="csr", dtype=complex)
    commutator = -1j * (sp.kron(eye, H) - sp.kron(H.T, eye))
    dissipator = 2.0 * p.kappa * (
        sp.kron(a.conj(), a)
        - 0.5 * sp.kron(eye, n_op)
        - 0.5 * sp.kron(n_op.T, eye)
    )
    L = (commutator + dissipator).tocsr()
    L.sort_indices()
    return Superoperator(n_max, L)


# ---------------------------------------------------------------------------
# Steady state and gap through the trace-bordered LU
# ---------------------------------------------------------------------------

def _start_vector(dim: int) -> np.ndarray:
    # Deterministic Arnoldi start so repeated runs are bit-identical.
    return np.ones(dim) / math.sqrt(dim)


def _bordered_lu(L: Superoperator):
    """Sparse LU of B, which is L with row 0 replaced by vec(I)^T.

    Row 0 of L is minus the sum of the other diagonal rows (L preserves
    the trace), so B x = 0 exactly when L x = 0 and tr x = 0: B is
    singular exactly when the null space of L is degenerate.  Columns are
    ordered by minimum degree on B^T + B and rows pivot with threshold
    ``LU_PIVOT_THRESHOLD`` (see there).  Callers go through
    ``Superoperator.bordered_lu``, which factors each generator once.
    """
    n = L.n_max
    diag = np.arange(n) * (n + 1)
    trace_row = sp.csr_matrix(
        (np.ones(n), (np.zeros(n, dtype=int), diag)), shape=(1, L.dim)
    )
    B = sp.vstack([trace_row, L.matrix[1:]], format="csc")
    try:
        return splu(
            B, permc_spec=LU_ORDERING, diag_pivot_thresh=LU_PIVOT_THRESHOLD
        )
    except RuntimeError as exc:
        raise DegenerateSteadyStateError(
            f"trace-bordered generator is singular: {exc}"
        ) from exc


def steady_state(L: Superoperator) -> DensityMatrix:
    """Unit-trace solution of L(rho) = 0, hermitized.

    Solves B x = e_0 with ``L.bordered_lu``.  Raises if the residual
    ||L(rho)||_F exceeds 1e-10, or if B is singular (degenerate null space).
    """
    rhs = np.zeros(L.dim, dtype=complex)
    rhs[0] = 1.0
    rho = unvectorize(L.bordered_lu.solve(rhs), L.n_max)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    state = DensityMatrix(L.n_max, rho)
    res = L.residual(state)
    if res > NULL_RESIDUAL_TOL:
        raise SolverConvergenceError(
            f"steady-state residual {res:.3e} above {NULL_RESIDUAL_TOL}"
        )
    log.debug("steady state: residual %.3e", res)
    return state


# ---------------------------------------------------------------------------
# Fixed-step RK4 oracle
# ---------------------------------------------------------------------------

def spectral_extent(L: Superoperator) -> float:
    """Power-iteration estimate of max |eigenvalue|, with a safety factor."""
    v = _start_vector(L.dim).astype(complex)
    est = 0.0
    for _ in range(POWER_ITERATIONS):
        w = L.matrix @ v
        nrm = np.linalg.norm(w)
        if nrm == 0:
            return 1.0
        est = nrm
        v = w / nrm
    return 1.2 * float(est)


def max_stable_dt(L: Superoperator) -> float:
    """Conservative RK4 step bound, 0.1 / max|eigenvalue estimate|."""
    return 0.1 / spectral_extent(L)


def evolve(
    rho0: DensityMatrix,
    L: Superoperator,
    t_final: float,
    dt: float,
) -> DensityMatrix:
    """Propagate rho0 for t_final with fixed-step RK4.

    dt must satisfy dt <= 0.1 / max|eig(L)| (estimated); trace drift beyond
    ``TRACE_DRIFT_TOL`` aborts with a step-size error.
    """
    if rho0.dim != L.n_max:
        raise StateValidationError("state and generator dimensions differ")
    bound = max_stable_dt(L)
    if dt > bound:
        raise StepSizeError(f"dt = {dt:.3e} exceeds stability bound {bound:.3e}")
    n_steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / n_steps  # land exactly on t_final, never above the bound
    v = vectorize(rho0.entries)
    v = _rk4_steps(L.matrix, v, dt, n_steps, L.n_max)
    rho = unvectorize(v, L.n_max)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return DensityMatrix(L.n_max, rho)


def _rk4_steps(mat, v, dt, n_steps, n_max, check_every=2000):
    trace_idx = np.arange(n_max) * (n_max + 1)
    for step in range(n_steps):
        k1 = mat @ v
        k2 = mat @ (v + (0.5 * dt) * k1)
        k3 = mat @ (v + (0.5 * dt) * k2)
        k4 = mat @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % check_every == 0 or step == n_steps - 1:
            drift = abs(v[trace_idx].sum() - 1.0)
            if drift > TRACE_DRIFT_TOL:
                raise StepSizeError(
                    f"trace drift {drift:.3e} beyond {TRACE_DRIFT_TOL} after "
                    f"{step + 1} steps; reduce dt"
                )
    return v


def evolve_to_stationarity(
    rho0: DensityMatrix,
    L: Superoperator,
    block_time: float = 10.0,
    tol: float = 1e-10,
) -> tuple[DensityMatrix, float]:
    """Propagate until consecutive checkpoints agree in trace distance.

    Fixed-step RK4 at ``max_stable_dt(L)`` throughout; only the total
    propagation time adapts, so the end state is reproducible.  Gives up
    after ``STATIONARITY_T_MAX``.  Returns (state, total time propagated).
    """
    from .fock_algebra import trace_distance

    dt = max_stable_dt(L)
    steps_per_block = max(1, int(math.ceil(block_time / dt)))
    v = vectorize(rho0.entries)
    t = 0.0
    prev = None
    while t < STATIONARITY_T_MAX:
        v = _rk4_steps(L.matrix, v, dt, steps_per_block, L.n_max)
        t += steps_per_block * dt
        rho = unvectorize(v, L.n_max)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        state = DensityMatrix(L.n_max, rho)
        if prev is not None and trace_distance(prev, state) < tol:
            return state, t
        prev = state
    raise SolverConvergenceError(
        f"propagation did not stabilize within t_max = {STATIONARITY_T_MAX}"
    )


# ---------------------------------------------------------------------------
# Spectral gap
# ---------------------------------------------------------------------------

def liouvillian_gap(L: Superoperator) -> float:
    """-Re(lambda_1), the nonzero eigenvalue of largest real part.

    Every eigenvector v of L with lambda != 0 is trace-free, so
    B v = lambda (v with v_0 := 0), and v is an eigenvector of
    f -> B^{-1}(f with f_0 := 0) with eigenvalue 1/lambda.  That operator
    maps into the trace-free subspace, so the null mode never enters its
    spectrum; one Arnoldi pass returns the ``GAP_EIGENVALUES`` eigenvalues
    of L closest to zero.  A gap below the roundoff floor eps_mach ||L||_1
    is not resolved and raises.
    """
    dim, n = L.dim, L.n_max
    lu = L.bordered_lu

    def matvec(f):
        f = np.array(f, dtype=complex).ravel()
        f[0] = 0.0
        return lu.solve(f)

    v0 = _start_vector(dim).astype(complex)
    trace_idx = np.arange(n) * (n + 1)
    v0[trace_idx] -= v0[trace_idx].sum() / n
    op = LinearOperator((dim, dim), matvec=matvec, dtype=complex)
    try:
        nu = eigs(
            op, k=min(GAP_EIGENVALUES, dim - 2), which="LM", v0=v0,
            return_eigenvectors=False,
        )
    except ArpackNoConvergence as exc:
        raise SolverConvergenceError(
            f"gap eigensolve did not converge: {exc}"
        ) from exc
    gap = -float(np.max((1.0 / nu).real))
    floor = np.finfo(float).eps * spnorm(L.matrix, 1)
    if gap < floor:
        raise SolverConvergenceError(
            f"gap {gap:.3e} below the roundoff floor {floor:.3e}"
        )
    return gap
