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
mostly survives the numerical factorization.  Both answers run on one
BLAS thread and restore the caller's count afterwards, so every caller
gets the same bits for any BLAS thread count.  A fixed-step RK4
propagator provides an independent oracle.  It steps at 2 / ||L||_1,
where the fixed points of the RK4 map are exactly the null space of L, so
long-time propagation converges to the same state without a step-size
bias.

Settings that every caller leaves alone are module constants:
``MAX_CUTOFF`` for the generator, ``LU_ORDERING``,
``LU_PIVOT_THRESHOLD``, ``GAP_EIGENVALUES`` and ``GAP_RITZ_TOL`` for the
solvers, ``TRACE_DRIFT_TOL``, ``STATIONARITY_BLOCK_TIME``,
``STATIONARITY_TOL`` and ``STATIONARITY_T_MAX`` for the RK4 oracle.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, splu
from scipy.sparse.linalg import norm as spnorm

from ._blas import one_blas_thread
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
    trace_distance,
    unvectorize,
    vectorize,
)

log = logging.getLogger(__name__)

NULL_RESIDUAL_TOL = 1e-10
# Largest Fock cutoff a generator is built at, checked before any
# allocation.  Building the generator and its bordered LU near eps_c
# (eps 0.94, N = 40-120 at the recommended cutoff, one BLAS thread) peaked
# at 148 / 240 / 367 / 532 / 764 MB RSS at 190 / 272 / 352 / 430 / 508
# levels, with 2.5M to 24.9M LU nonzeros, so the bound keeps a point's
# factorization under about 0.8 GB.  The largest cutoff the tests build
# is 190.
MAX_CUTOFF = 512
# Column ordering and pivot threshold of the bordered LU.  Every term of
# the generator except the jump term conj(a) kron a has a symmetric
# pattern, so minimum degree on B^T + B gives far less fill than scipy's
# default COLAMD (1.43M against 2.32M nonzeros at N=30 near eps_c), and
# threshold pivoting keeps most of that ordering's diagonal pivots.  Some
# pivoting is needed: with none (threshold 0) the N=40 gap near eps_c
# comes out negative.
LU_ORDERING = "MMD_AT_PLUS_A"
LU_PIVOT_THRESHOLD = 0.1
# Eigenvalues of L closest to zero that the gap's Arnoldi pass returns.
# Away from the bistable window the slowest decay can sit outside the few
# eigenvalues of smallest modulus: 5 give a wrong gap at N = 10 and 15
# above the window, while 8 matched the dense spectrum on 143 drives at
# N = 1-5 and a 30-eigenvalue pass on 65 drives at N = 6-20.  Each Arnoldi
# step is one LU solve, and with scipy's default ncv = max(2k + 1, 20)
# the step count is not monotone in k: 6 take more solves than 8, and 10
# more than 12.
GAP_EIGENVALUES = 8
# Relative accuracy to which ARPACK converges the Ritz values 1/lambda of
# B^-1 (scipy's default 0 means machine precision).  Through an LU whose
# inverse has norm about 1/gap, only the slow mode is resolved that
# finely; the other values carry an error of about eps_mach / (gap
# |lambda|), 1e-6 at N=30 near eps_c, so converging them further only
# chases roundoff.  The slow mode that sets the gap near eps_c still
# converges to full precision.  1e-8 cuts the nine near-critical drives at
# N = 10/20/30 from 686 to 421 LU solves and moves the gap by at most
# 1.6e-13 relative on 54 drives at N = 1-30; 1e-6 moves it by 2.7e-6 at
# N = 15, eps 1.29.
GAP_RITZ_TOL = 1e-8
TRACE_DRIFT_TOL = 1e-9
# Propagation time between RK4 checkpoints, and the trace distance
# between consecutive checkpoints that ends the propagation.
STATIONARITY_BLOCK_TIME = 20.0
STATIONARITY_TOL = 1e-11
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
        N = self.N
        integral = isinstance(N, numbers.Integral) or (
            isinstance(N, numbers.Real) and math.isfinite(N) and N == int(N)
        )
        if isinstance(N, bool) or not integral or N < 1:
            raise ValueError(f"N must be a positive integer, got {N!r}")
        object.__setattr__(self, "N", int(N))

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
    """Assemble the sparse Lindblad generator for the driven Kerr mode.

    A cutoff below 2 or above ``MAX_CUTOFF`` raises ``CutoffError``, with
    or without ``enforce_cutoff``."""
    if n_max < 2:
        raise CutoffError(f"n_max must be >= 2, got {n_max}")
    if n_max > MAX_CUTOFF:
        raise CutoffError(f"n_max = {n_max} above MAX_CUTOFF = {MAX_CUTOFF} for {p}")
    if enforce_cutoff:
        from .kerr_model import recommended_cutoff  # deferred: avoids module cycle

        rec = recommended_cutoff(p)
        if n_max < rec:
            raise CutoffError(f"n_max = {n_max} below recommended cutoff {rec} for {p}")
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


def _state(v: np.ndarray, n_max: int) -> DensityMatrix:
    """The column-stacked vector ``v`` as a hermitized, unit-trace state."""
    rho = unvectorize(v, n_max)
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(n_max, rho / np.trace(rho).real)


@one_blas_thread
def steady_state(L: Superoperator) -> DensityMatrix:
    """Unit-trace solution of L(rho) = 0, hermitized.

    Solves B x = e_0 with ``L.bordered_lu``.  Raises if the residual
    ||L(rho)||_F exceeds 1e-10, or if B is singular (degenerate null space).
    """
    rhs = np.zeros(L.dim, dtype=complex)
    rhs[0] = 1.0
    state = _state(L.bordered_lu.solve(rhs), L.n_max)
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

def max_stable_dt(L: Superoperator) -> float:
    """RK4 step 2 / ||L||_1, at which the RK4 map fixes exactly ker L.

    One step multiplies an eigenmode of L by P(z) = 1 + z + z^2/2 + z^3/6
    + z^4/24 with z = dt lambda.  Every eigenvalue has |lambda| <= ||L||_1
    and, for a Lindblad generator, Re lambda <= 0, so z lies in the left
    half-disk |z| <= 2.  RK4's stability region |P(z)| <= 1 contains the
    left half-disk |z| <= 2.616, so no mode grows.  P(z) - 1 = z Q(z),
    and Q has no root inside |z| < 2.785 (its real root is -2.785), so
    Q(dt L) is invertible and P(dt L) v = v exactly when L v = 0: the
    fixed points carry no step-size bias.  The 2 keeps a margin to both
    radii.
    """
    return 2.0 / float(spnorm(L.matrix, 1))


def evolve(rho0: DensityMatrix, L: Superoperator, t_final: float) -> DensityMatrix:
    """Propagate rho0 for t_final with fixed-step RK4.

    Takes the fewest equal steps of at most ``max_stable_dt(L)`` that land
    exactly on t_final; trace drift beyond ``TRACE_DRIFT_TOL`` raises
    ``StepSizeError``.
    """
    if rho0.dim != L.n_max:
        raise StateValidationError("state and generator dimensions differ")
    n_steps = max(1, int(math.ceil(t_final / max_stable_dt(L))))
    v = vectorize(rho0.entries)
    v = _rk4_steps(L.matrix, v, t_final / n_steps, n_steps, L.n_max)
    return _state(v, L.n_max)


def _rk4_steps(mat, v, dt, n_steps, n_max):
    trace_idx = np.arange(n_max) * (n_max + 1)
    for step in range(n_steps):
        k1 = mat @ v
        k2 = mat @ (v + (0.5 * dt) * k1)
        k3 = mat @ (v + (0.5 * dt) * k2)
        k4 = mat @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # the trace is checked every 2000 steps and after the last one
        if (step + 1) % 2000 == 0 or step == n_steps - 1:
            drift = abs(v[trace_idx].sum() - 1.0)
            if drift > TRACE_DRIFT_TOL:
                raise StepSizeError(
                    f"trace drift {drift:.3e} beyond {TRACE_DRIFT_TOL} after "
                    f"{step + 1} steps"
                )
    return v


def evolve_to_stationarity(rho0: DensityMatrix, L: Superoperator) -> tuple[DensityMatrix, float]:
    """Propagate until checkpoints ``STATIONARITY_BLOCK_TIME`` apart agree
    in trace distance to ``STATIONARITY_TOL``.

    Fixed-step RK4 at ``max_stable_dt(L)`` throughout; only the total
    propagation time adapts, so the end state is reproducible.  Gives up
    after ``STATIONARITY_T_MAX``.  Returns (state, total time propagated).
    """
    dt = max_stable_dt(L)
    steps_per_block = max(1, int(math.ceil(STATIONARITY_BLOCK_TIME / dt)))
    v = vectorize(rho0.entries)
    t = 0.0
    prev = None
    while t < STATIONARITY_T_MAX:
        v = _rk4_steps(L.matrix, v, dt, steps_per_block, L.n_max)
        t += steps_per_block * dt
        state = _state(v, L.n_max)
        if prev is not None and trace_distance(prev, state) < STATIONARITY_TOL:
            return state, t
        prev = state
    raise SolverConvergenceError(
        f"propagation did not stabilize within t_max = {STATIONARITY_T_MAX}"
    )


# ---------------------------------------------------------------------------
# Spectral gap
# ---------------------------------------------------------------------------

@one_blas_thread
def liouvillian_gap(L: Superoperator) -> float:
    """-Re(lambda_1), the nonzero eigenvalue of largest real part.

    Every eigenvector v of L with lambda != 0 is trace-free, so
    B v = lambda (v with v_0 := 0), and v is an eigenvector of
    f -> B^{-1}(f with f_0 := 0) with eigenvalue 1/lambda.  That operator
    maps into the trace-free subspace, so the null mode never enters its
    spectrum; one Arnoldi pass returns the ``GAP_EIGENVALUES`` eigenvalues
    of L closest to zero, converged to ``GAP_RITZ_TOL``.  A gap below the
    roundoff floor eps_mach ||L||_1 is not resolved and raises, and so does
    any ARPACK failure, with ARPACK's message.
    """
    dim, n = L.dim, L.n_max
    lu = L.bordered_lu
    solves = 0

    def matvec(f):
        nonlocal solves
        solves += 1
        f = np.array(f, dtype=complex).ravel()
        f[0] = 0.0
        return lu.solve(f)

    # deterministic Arnoldi start, so repeated runs are bit-identical
    v0 = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    trace_idx = np.arange(n) * (n + 1)
    v0[trace_idx] -= v0[trace_idx].sum() / n
    op = LinearOperator((dim, dim), matvec=matvec, dtype=complex)
    try:
        nu = eigs(
            op, k=min(GAP_EIGENVALUES, dim - 2), which="LM", v0=v0,
            tol=GAP_RITZ_TOL, return_eigenvectors=False,
        )
    except ArpackError as exc:
        raise SolverConvergenceError(f"gap eigensolve failed: {exc}") from exc
    log.debug("gap: %d LU solves, %d converged Ritz values", solves, len(nu))
    gap = -float(np.max((1.0 / nu).real))
    floor = np.finfo(float).eps * spnorm(L.matrix, 1)
    if gap < floor:
        raise SolverConvergenceError(
            f"gap {gap:.3e} below the roundoff floor {floor:.3e}"
        )
    return gap
