"""Lindblad generator of the driven Kerr mode and its steady-state solvers.

The mode (``budget.KerrParams``) has the rotating-frame Hamiltonian

    H = Delta a^dag a + (U / 2) a^dag a^dag a a + i F (a^dag - a),

U = u / N and F = eps sqrt(N), and loses photons at rate 2 kappa.  The
generator acts on the n x n matrix X by five bands:

    (L X)_mk = [-kappa (m+k) - i (Delta (m-k) + (U/2)(m(m-1) - k(k-1)))] X_mk
               + F sqrt(m) X_(m-1,k) - F sqrt(m+1) X_(m+1,k)
               + F sqrt(k) X_(m,k-1) - F sqrt(k+1) X_(m,k+1)
               + 2 kappa sqrt((m+1)(k+1)) X_(m+1,k+1)

``build_kerr_liouvillian`` assembles L from these bands on column-stacked
density matrices, where index j = m + n k holds X_mk: the diagonal, the
drive at offsets -1, +1, -n and +n, and the jump term at offset n + 1.
The operator form with vec(A X B) = (B^T kron A) vec(X),

    L = -i (I kron H - H^T kron I)
        + 2 kappa ( conj(a) kron a - 1/2 I kron a^dag a - 1/2 (a^dag a)^T kron I ),

is the tests' oracle for it.

The steady state solves L x = 0 with one row of L replaced by the trace
functional, tr x = 1, through a sparse LU of that bordered matrix; it is
hermitized and normalized afterwards.  The spectral gap comes from one
Krylov-Schur pass on the inverse of the same bordered matrix restricted
to trace-free operators, where the null mode is absent; the pass stops
as soon as the gap is resolved, which near eps_c is when the slow mode
alone has converged.  The LU is computed
once per generator (``Superoperator.bordered_lu``) and shared by both
answers.  Its column ordering is minimum degree on B^T + B, which suits
the nearly symmetric pattern of a Lindblad generator, and it pivots with
a threshold rather than always on the largest entry, so the ordering
mostly survives the numerical factorization.  Both answers run on one
BLAS thread and restore the caller's count afterwards, so every caller
gets the same bits for any BLAS thread count.  The steady state's
independent oracle, a fixed-step RK4 propagator, lives beside the tests
(``tests/oracles/rk4.py``).

Settings that every caller leaves alone are module constants:
``MAX_CUTOFF`` for the generator, and ``LU_ORDERING``,
``LU_PIVOT_THRESHOLD``, ``GAP_EIGENVALUES``, ``GAP_RITZ_TOL``,
``GAP_BASIS``, ``GAP_KEEP``, ``GAP_SEPARATION`` and ``GAP_MAX_SOLVES`` for
the solvers.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.sparse.linalg import norm as spnorm

# Nothing here calls ARPACK.  The benchmark's tracer still wraps ``eigs``
# under this module's name (``perfbench/tracing.py`` TARGETS), so the name
# stays importable until the tracer is retargeted (ROADMAP item 2).
from scipy.sparse.linalg import eigs  # noqa: F401

from ._blas import one_blas_thread
from .budget import KerrParams
from .errors import (
    CutoffError,
    DegenerateSteadyStateError,
    SolverConvergenceError,
)
from .fock_algebra import DensityMatrix, unvectorize, vectorize

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
# Column ordering and pivot threshold of the bordered LU.  Every band of
# the generator except the jump band at offset n + 1 pairs with its
# mirror (the diagonal with itself, -1 with +1, -n with +n), so minimum
# degree on B^T + B gives far less fill than scipy's default COLAMD
# (1.43M against 2.32M nonzeros at N=30 near eps_c), and
# threshold pivoting keeps most of that ordering's diagonal pivots.  Some
# pivoting is needed: with none (threshold 0) the N=40 gap near eps_c
# comes out negative.
LU_ORDERING = "MMD_AT_PLUS_A"
LU_PIVOT_THRESHOLD = 0.1
# Eigenvalues of L closest to zero among which the gap pass looks for the
# slowest decay.  Away from the bistable window the slowest decay can sit
# outside the few eigenvalues of smallest modulus: 5 give a wrong gap at
# N = 10 and 15 above the window, while 8 matched the dense spectrum on
# 143 drives at N = 1-5 and a 30-eigenvalue pass on 65 drives at N = 6-20.
GAP_EIGENVALUES = 8
# Relative accuracy of the converged Ritz values 1/lambda of B^-1.
# Through an LU whose inverse has norm about 1/gap, only the slow mode is
# resolved finer; the other values carry an error of about
# eps_mach / (gap |lambda|), 1e-6 at N=30 near eps_c, so converging them
# further only chases roundoff.  The slow mode that sets the gap near
# eps_c still converges to full precision.  With ARPACK, 1e-8 against
# machine precision cut the nine near-critical drives at N = 10/20/30
# from 686 to 421 LU solves and moved the gap by at most 1.6e-13 relative
# on 54 drives at N = 1-30; 1e-6 moved it by 2.7e-6 at N = 15, eps 1.29.
GAP_RITZ_TOL = 1e-8
# Krylov basis size (ARPACK's default ncv for 8 eigenvalues), and the
# Ritz vectors of largest |theta| that a thick restart keeps.
GAP_BASIS = 20
GAP_KEEP = 14
# Margin of the separated-slow-mode stop (``_krylov_schur``): the slow
# mode's Ritz value must exceed the next one in modulus by this factor,
# and the other wanted values must lie left of it by this many error
# bounds.  Near eps_c the separation is 2.9e3-3.0e3 at N = 10 and
# 2.0e9-2.2e9 at N = 30.  Off the window, where all 8 values are needed,
# it was at most 5.7 on four drives once the slow mode had converged
# (1.8 at N = 15, eps 1.29, where stopping would give a gap 11 % off).
# With the stop, the nine near-critical drives take 204 LU solves
# instead of ARPACK's 421.
GAP_SEPARATION = 100.0
# LU solves after which the gap pass gives up; it takes at most 61 on
# the drives measured at N = 10-30.
GAP_MAX_SOLVES = 1000
# Columns of the basis recombined at a time in a restart, so the
# recombination needs no second copy of the basis.
_RESTART_BLOCK = 2048


@dataclass(frozen=True)
class Superoperator:
    """Sparse generator on the vectorized space of dimension n_max^2."""

    n_max: int
    matrix: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.n_max ** 2

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
    n, dim = n_max, n_max ** 2
    k, m = np.divmod(np.arange(dim), n)  # row j = m + n k holds X[m, k]
    U, F = p.u / p.N, p.pump
    # each band's values by row j; a row whose partner X[m+1, .] would wrap
    # into the next column of X (m = n - 1) gets 0
    wrap = m == n - 1
    bands = {
        0: -p.kappa * (m + k)
        - 1j * (p.delta * (m - k) + (0.5 * U) * (m * (m - 1) - k * (k - 1))),
        -1: F * np.sqrt(m),                               # X[m-1, k]
        1: np.where(wrap, 0.0, -F * np.sqrt(m + 1)),      # X[m+1, k]
        -n: F * np.sqrt(k),                               # X[m, k-1]
        n: -F * np.sqrt(k + 1),                           # X[m, k+1]
        n + 1: np.where(wrap, 0.0, 2.0 * p.kappa * np.sqrt((m + 1) * (k + 1))),
    }
    L = sp.diags(
        [v[-d:] if d < 0 else v[:dim - d] for d, v in bands.items()], list(bands),
        shape=(dim, dim), format="csr", dtype=complex,
    )
    # the (0, 0) entry and, at eps = 0, the drive bands are exact zeros;
    # the LU's minimum-degree ordering reads the stored pattern
    L.eliminate_zeros()
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
# Spectral gap
# ---------------------------------------------------------------------------

@one_blas_thread
def liouvillian_gap(L: Superoperator) -> float:
    """-Re(lambda_1), the nonzero eigenvalue of largest real part.

    Every eigenvector v of L with lambda != 0 is trace-free, so
    B v = lambda (v with v_0 := 0), and v is an eigenvector of
    f -> B^{-1}(f with f_0 := 0) with eigenvalue 1/lambda.  That operator
    maps into the trace-free subspace, so the null mode never enters its
    spectrum; one Krylov-Schur pass (``_krylov_schur``) on it resolves the
    ``GAP_EIGENVALUES`` eigenvalues of L closest to zero, or stops early on
    a slow mode separated from them.  A gap below the roundoff floor
    eps_mach ||L||_1 is not resolved and raises.
    """
    dim, n = L.dim, L.n_max
    lu = L.bordered_lu
    trace_idx = np.arange(n) * (n + 1)

    def trace_free(v):
        v[trace_idx] -= v[trace_idx].sum() / n
        return v

    def apply(f):
        f = f.copy()
        f[0] = 0.0
        return lu.solve(f)

    rng = np.random.default_rng(0)

    def fresh():
        return trace_free(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))

    # deterministic start, so repeated runs are bit-identical
    v0 = trace_free(np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))
    gap = -float(np.max((1.0 / _krylov_schur(apply, v0, fresh)).real))
    floor = np.finfo(float).eps * spnorm(L.matrix, 1)
    if gap < floor:
        raise SolverConvergenceError(
            f"gap {gap:.3e} below the roundoff floor {floor:.3e}"
        )
    return gap


def _krylov_schur(op, v0, fresh) -> np.ndarray:
    """Converged eigenvalues of largest modulus of ``op``, by thick-restart
    Krylov-Schur from ``v0``.

    Keeps A V_p = V_p S + v_(p+1) b^H, with V orthonormal (rows of ``V``,
    classical Gram-Schmidt applied twice) and S, b^H in rows 0..p of
    ``H``.  After every application of ``op`` the Ritz pairs (theta, y) of
    S, with residuals rho = |b^H y|, are tested against two stops:

    - all wanted values (the ``GAP_EIGENVALUES`` of largest |theta|) have
      rho <= ``GAP_RITZ_TOL`` |theta|; all of them are returned;
    - the dominant value theta_1 has converged so, it exceeds every other
      in modulus by ``GAP_SEPARATION``, and each other wanted value,
      moved right by ``GAP_SEPARATION`` times its error bound
      rho / |theta|^2, still lies left of 1 / theta_1; theta_1 alone is
      returned.

    A full basis of ``GAP_BASIS`` vectors restarts on the ``GAP_KEEP``
    Ritz vectors of largest |theta|: an orthonormal basis of them by QR,
    which makes Q^H S Q the triangular Schur form.  A breakdown (an
    invariant Krylov space) continues from ``fresh()``, orthogonalized to
    the basis.  More than ``GAP_MAX_SOLVES`` applications raise.
    """
    dim = v0.size
    # op maps into a space of dimension dim - 1, which a basis of dim - 1
    # vectors exhausts
    m = min(GAP_BASIS, dim - 1)
    nev = min(GAP_EIGENVALUES, dim - 2)
    keep = min(GAP_KEEP, m - 1)
    V = np.empty((m + 1, dim), dtype=complex)
    H = np.zeros((m + 1, m), dtype=complex)
    V[0] = v0 / np.linalg.norm(v0)
    breakdown = np.finfo(float).eps * math.sqrt(dim)
    p = solves = 0
    while True:
        w = op(V[p])
        solves += 1
        norm = np.linalg.norm(w)
        h, beta = _orthogonalize(V[:p + 1], w)
        H[:p + 1, p] = h
        p += 1
        # a remainder at roundoff level means the Krylov space is invariant
        broke = beta <= breakdown * norm
        if not broke:
            H[p, p - 1] = beta
        if p >= nev:
            theta, Y = np.linalg.eig(H[:p, :p])
            order = np.argsort(-np.abs(theta), kind="stable")
            wanted = order[:nev]
            lam = 1.0 / theta[wanted]
            t = np.abs(theta[wanted])
            rho = np.abs(H[p, :p] @ Y[:, wanted])
            if np.all(rho <= GAP_RITZ_TOL * t):
                log.debug("gap: %d LU solves, stop: all %d converged", solves, nev)
                return theta[wanted]
            if (
                rho[0] <= GAP_RITZ_TOL * t[0]
                and t[0] >= GAP_SEPARATION * t[1]
                and np.all(lam[1:].real + GAP_SEPARATION * rho[1:] / t[1:] ** 2
                           < lam[0].real)
            ):
                log.debug(
                    "gap: %d LU solves, stop: separated slow mode "
                    "(|theta_1 / theta_2| = %.1e)", solves, t[0] / t[1],
                )
                return theta[wanted[:1]]
        if solves >= GAP_MAX_SOLVES:
            raise SolverConvergenceError(
                f"gap eigensolve unresolved after {solves} LU solves"
            )
        if broke:
            w = fresh()
            _, beta = _orthogonalize(V[:p], w)
        V[p] = w / beta
        if p == m:
            # thick restart on the Schur vectors of the kept Ritz values
            Q, _ = np.linalg.qr(Y[:, order[:keep]])
            for s in range(0, dim, _RESTART_BLOCK):
                V[:keep, s:s + _RESTART_BLOCK] = Q.T @ V[:m, s:s + _RESTART_BLOCK]
            V[keep] = V[m]
            S = Q.conj().T @ H[:m, :m] @ Q
            b = H[m, :m] @ Q
            H[:] = 0.0
            H[:keep, :keep] = S
            H[keep, :keep] = b
            p = keep


def _orthogonalize(V, w):
    """Classical Gram-Schmidt of ``w`` against the rows of ``V``, twice,
    in place; returns (coefficients, norm of what remains).

    V^H w is formed as conj(V conj(w)), so no conjugate of V is stored."""
    h = (V @ w.conj()).conj()
    w -= h @ V
    h2 = (V @ w.conj()).conj()
    w -= h2 @ V
    return h + h2, float(np.linalg.norm(w))
