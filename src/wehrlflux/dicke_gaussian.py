"""Gaussianized driven-dissipative Dicke model and Gaussian entropy budgets.

Pipeline: mean-field fixed point -> bosonization of the macrospin around
it -> quadratic Hamiltonian -> drift/diffusion matrices -> Lyapunov
steady-state covariance -> closed-form entropy budget.

Mean field (intensive variables alpha = <a>/sqrt(N), beta = <J_->/N,
w = <J_z>/N):

    d alpha/dt = -(kappa + i omega) alpha - i lam (beta + conj(beta))
    d beta /dt = -i omega0 beta + 2 i lam (alpha + conj(alpha)) w
    d w    /dt =  i lam (alpha + conj(alpha)) (beta - conj(beta))

with w^2 + |beta|^2 = 1/4.  Ordering sets in above the critical coupling

    lam_c = (1/2) sqrt( (omega0/omega) (kappa^2 + omega^2) )

on the spin-down branch (w <= 0).  The bosonized fluctuations obey the
quadratic Hamiltonian

    H2 = wt0 db^dag db + omega da^dag da
         + lt (da + da^dag)(db + db^dag) - zeta (db + db^dag)^2,

which in quadratures R = (q_b, p_b, q_a, p_a) reads H2 = (1/2) R^T G R.

Every Gaussian model here is one pair (G, losses): the symmetric
quadratic form G of the fluctuation Hamiltonian in
R = (q_1, p_1, ..., q_m, p_m) and one loss rate k_i per mode, the
cavity mode last.  The Dicke model is the two-mode case with losses
(gamma, kappa), gamma a small stabilizing loss on the spin mode; the
linear driven cavity is the one-mode case G = 0, losses (kappa,).  The
covariance sigma solves

    A sigma + sigma A^T + D = 0,   A = Omega G - K,   D = K,

with Omega the m-mode symplectic form and K = diag(k_1, k_1, ..., k_m, k_m).
The Husimi function of the Gaussian steady state has covariance
Sigma = sigma + I/2, and every entropy-rate integral reduces to a matrix
expression in Sigma (derivations in the function docstrings).  A seeded
counter-based Monte-Carlo quadrature of the defining integrals,
``mc_gaussian_budget``, is the independent oracle for the whole budget
(S, both modes' Phi_q and Pi_d, and Pi_u); it evaluates the integrands
in whitened coordinates z = L^{-1} r, Sigma = L L^T, and draws in
batches of ``MC_CHUNK``.  Its estimators are quadratic in z, so
``estimator_means`` gives their exact expectations through the same
whitened algebra, and every ``gaussian_budget`` checks its closed forms
against them.  ``fit_power_law`` fits the divergence of Pi_d inside
the fixed band ``DIVERGENCE_WINDOW``.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .budget import EntropyBudget
from .errors import (
    DimensionError,
    InvalidCovarianceError,
    SingularBranchError,
    SolverConvergenceError,
    UnstableSystemError,
    WehrlFluxError,
)

log = logging.getLogger(__name__)

# Bound on ||A sigma + sigma A^T + D|| relative to 2 ||A|| ||sigma|| + ||D||.
LYAPUNOV_RESIDUAL_TOL = 1e-12

# Relative coupling distances x = |lam/lam_c - 1| used for the power-law fit.
# The stabilizer gamma rounds the divergence over a core whose width is set
# by gamma against the soft-mode scale omega0 (not against kappa).  At the
# reference parameters (omega0 = 0.005, omega = 0.01, kappa = 1) and
# gamma = 1e-3 this band lies inside that gamma-rounded crossover, not in
# the asymptotic law Pi_d ~ A / x: below lam_c, x Pi_d is 9.8 at x = 0.01
# against the gamma -> 0 limit A = kappa (kappa^2 + omega^2) / (8 omega^2)
# = 1250, and the local log-log slope runs from about -1.3 at x = 0.12 to
# -0.8 at x = 0.04.  The slope near -1 fitted here is that crossover
# passing through -1; only at gamma ~ 1e-5 and below do the local slopes
# themselves approach -1 as x -> 0.
DIVERGENCE_WINDOW = (0.04, 0.12)
# The eigenvalues of sigma + i Omega/2 carry roundoff on the scale of its
# 2-norm, which reaches 1.9e13 near lam_c at gamma = 1e-7.  From gamma = 1e-3
# to 1e-9, the most negative min eig measured was -0.59 eps ||sigma||_2, a
# hundredth of PHYSICALITY_REL_TOL.
PHYSICALITY_TOL = 1e-9
PHYSICALITY_REL_TOL = 64 * np.finfo(float).eps
HURWITZ_TOL = 1e-12
# Bound of the check in ``gaussian_budget``, relative to |closed form| plus
# the gross fluctuation flux sum_i k_i tr Sigma_i, which is never 0, so
# terms that vanish far below lambda_c are held to roundoff on the scale of
# the whole budget.  From lambda = 0 to 2 lambda_c at gamma = 1e-3 down to
# 1e-7, the two routes agree to 4.4e-16 of that scale.
ESTIMATOR_CHECK_TOL = 1e-10
# Monte-Carlo samples drawn per vectorized batch.
MC_CHUNK = 2 ** 13

@dataclass(frozen=True)
class DickeParams:
    """omega0: spin splitting; omega: cavity frequency; kappa: cavity loss;
    lam: coupling; gamma: stabilization loss on the spin fluctuation mode."""

    omega0: float
    omega: float
    kappa: float
    lam: float
    gamma: float

    def __post_init__(self):
        vals = (self.omega0, self.omega, self.kappa, self.lam, self.gamma)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("Dicke parameters must be finite")
        for name in ("omega0", "omega", "kappa", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.gamma > 0.01 * self.kappa:
            warnings.warn(
                f"gamma = {self.gamma:.3g} is not small against kappa = "
                f"{self.kappa:.3g}; the stabilizer should be a weak perturbation",
                # past the generated __init__, to the line building DickeParams
                stacklevel=3,
            )


def critical_coupling(p: DickeParams) -> float:
    """lam_c = (1/2) sqrt((omega0/omega) (kappa^2 + omega^2))."""
    return 0.5 * math.sqrt((p.omega0 / p.omega) * (p.kappa ** 2 + p.omega ** 2))


# ---------------------------------------------------------------------------
# Mean field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanFieldState:
    alpha: complex
    beta: float
    w: float

    def residuals(self, p: DickeParams) -> tuple[float, float, float]:
        """Absolute residuals of the alpha and beta fixed-point equations
        and of the spin-length constraint w^2 + beta^2 = 1/4."""
        r_alpha = -(p.kappa + 1j * p.omega) * self.alpha - 1j * p.lam * (
            self.beta + self.beta
        )
        r_beta = -1j * p.omega0 * self.beta + 2j * p.lam * (
            self.alpha + self.alpha.conjugate()
        ) * self.w
        r_w = self.w ** 2 + self.beta ** 2 - 0.25
        return abs(r_alpha), abs(r_beta), abs(r_w)


def mean_field_fixed_point(p: DickeParams) -> MeanFieldState:
    """Steady state of the mean-field flow on the spin-down branch.

    Below the critical coupling the normal phase (beta = 0, w = -1/2,
    alpha = 0); above it the ordered branch

        beta = (1/2) sqrt(1 - lam_c^4/lam^4),  w = -lam_c^2 / (2 lam^2),
        alpha = -2 i lam beta / (kappa + i omega).

    The spin-up branch only ever yields the trivial solution and is not
    reported.  The branches are exact closed forms, so their
    ``MeanFieldState.residuals`` are roundoff, which grows with |alpha|.
    """
    lc = critical_coupling(p)
    if p.lam <= lc:
        return MeanFieldState(alpha=0.0 + 0.0j, beta=0.0, w=-0.5)
    ratio = (lc / p.lam) ** 2
    beta = 0.5 * math.sqrt(1.0 - ratio ** 2)
    w = -0.5 * ratio
    alpha = -2j * p.lam * beta / (p.kappa + 1j * p.omega)
    return MeanFieldState(alpha=alpha, beta=beta, w=w)


# ---------------------------------------------------------------------------
# Bosonization around the mean field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HPCoefficients:
    """Bosonization condensate amplitudes and quadratic couplings.

    beta_tilde_minus is the physical (spin-down) condensate choice; the
    identities beta_tilde_minus^2 + beta_tilde_plus^2 = 1 and
    beta_tilde_minus * beta_tilde_plus = beta hold by construction.
    """

    beta_tilde_minus: float
    beta_tilde_plus: float
    omega0_tilde: float
    lambda_tilde: float
    zeta: float


def hp_coefficients(mf: MeanFieldState, p: DickeParams) -> HPCoefficients:
    if abs(mf.beta) >= 0.5 - 1e-12:
        # the two condensate branches merge and the spin-down expansion dies
        raise SingularBranchError(
            f"fully inverted spin (beta = {mf.beta}): bosonization branch is singular"
        )
    root = math.sqrt(max(1.0 - 4.0 * mf.beta ** 2, 0.0))
    bt_minus = math.sqrt((1.0 - root) / 2.0)
    bt_plus = math.sqrt((1.0 + root) / 2.0)
    two_re_alpha = 2.0 * mf.alpha.real
    ratio = bt_minus / bt_plus
    omega0_tilde = p.omega0 - p.lam * two_re_alpha * ratio
    lambda_tilde = p.lam * bt_plus * (1.0 - ratio ** 2)
    zeta = 0.5 * p.lam * two_re_alpha * ratio * (1.0 + 0.5 * ratio ** 2)
    return HPCoefficients(bt_minus, bt_plus, omega0_tilde, lambda_tilde, zeta)


# ---------------------------------------------------------------------------
# Quadratic models: drift, diffusion, Lyapunov
# ---------------------------------------------------------------------------

def hamiltonian_quadratic_form(hp: HPCoefficients, p: DickeParams) -> np.ndarray:
    """Symmetric matrix G with H2 = (1/2) R^T G R in R = (q_b, p_b, q_a, p_a)."""
    wt0, lt, zeta = hp.omega0_tilde, hp.lambda_tilde, hp.zeta
    return np.array(
        [[wt0 - 4.0 * zeta, 0.0, 2.0 * lt, 0.0],
         [0.0, wt0, 0.0, 0.0],
         [2.0 * lt, 0.0, p.omega, 0.0],
         [0.0, 0.0, 0.0, p.omega]]
    )


def symplectic_form(m: int) -> np.ndarray:
    """Omega for R = (q_1, p_1, ..., q_m, p_m): m blocks [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * m, 2 * m))
    q = np.arange(0, 2 * m, 2)
    omega[q, q + 1] = 1.0
    omega[q + 1, q] = -1.0
    return omega


def _mode_count(G: np.ndarray, losses) -> int:
    """Number of modes m of the model (G, losses); checks G is 2m x 2m symmetric."""
    m = len(losses)
    if m < 1 or np.shape(G) != (2 * m, 2 * m):
        raise DimensionError(
            f"G must be {2 * m}x{2 * m} for {m} loss rate(s), got {np.shape(G)}"
        )
    if np.max(np.abs(G - np.transpose(G))) > 1e-12:
        raise ValueError("quadratic form G must be symmetric")
    return m


def drift_diffusion(G: np.ndarray, losses) -> tuple[np.ndarray, np.ndarray]:
    """Drift A = Omega G - K and diffusion D = K of the covariance flow.

    K is diagonal and repeats each mode's loss rate for its q and p.
    """
    m = _mode_count(G, losses)
    K = np.diag(np.repeat(np.asarray(losses, dtype=float), 2))
    return symplectic_form(m) @ G - K, K


def unitary_diffusion(G: np.ndarray) -> np.ndarray:
    """Diffusion D_u of the purely unitary Husimi flow.

    A quadratic Hamiltonian moves the Wigner function by the drift
    A_u = Omega G alone; convolving with the vacuum Gaussian (covariance
    I/2) to reach the Husimi picture adds the constant diffusion
    D_u = -(A_u (I/2) + (I/2) A_u^T) = (G Omega - Omega G)/2.  The drift
    itself drops out of every rate, since tr(Omega G) = 0 for symmetric G.
    """
    omega = symplectic_form(len(G) // 2)
    return 0.5 * (G @ omega - omega @ G)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Steady-state quadrature covariance, symmetry-checked on construction."""

    sigma: np.ndarray

    def __post_init__(self):
        s = self.sigma
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 or not s.size:
            raise InvalidCovarianceError(f"expected a 2m x 2m matrix, got {s.shape}")
        if np.max(np.abs(s - s.T)) > 1e-12:
            raise InvalidCovarianceError("covariance not symmetric")

    def validate_physical(self):
        """Uncertainty check: sigma + (i/2) Omega must be positive
        semidefinite, to within ``PHYSICALITY_TOL`` or ``PHYSICALITY_REL_TOL``
        times its 2-norm, whichever is larger."""
        herm = self.sigma + 0.5j * symplectic_form(len(self.sigma) // 2)
        eigs = np.linalg.eigvalsh(herm)  # ascending
        lam_min = float(eigs[0])
        bound = max(PHYSICALITY_TOL, PHYSICALITY_REL_TOL * max(-lam_min, float(eigs[-1])))
        if lam_min < -bound:
            raise InvalidCovarianceError(
                f"uncertainty violation: min eig(sigma + i Omega/2) = {lam_min:.3e}, "
                f"below -{bound:.1e}"
            )
        return lam_min


def solve_lyapunov(A: np.ndarray, D: np.ndarray) -> CovarianceMatrix:
    """Direct solve of A sigma + sigma A^T + D = 0 for Hurwitz A.

    With row-major vec, vec(A sigma + sigma A^T) = (A (x) I + I (x) A)
    vec(sigma), so sigma is one dense solve of that Kronecker sum, which is
    (2m)^2 square: 16 x 16 for two modes.  A Hurwitz A keeps it regular,
    since its eigenvalues are the pairwise sums of A's.  The result must be
    a quadrature covariance: it is checked against the quantum uncertainty
    bound (``CovarianceMatrix.validate_physical``), which every (A, D) from
    ``drift_diffusion`` meets.
    """
    eigvals = np.linalg.eigvals(A)
    worst = eigvals[np.argmax(eigvals.real)]
    if worst.real >= -HURWITZ_TOL:
        raise UnstableSystemError(
            f"drift is not Hurwitz: eigenvalue {worst:.6g} has Re >= {-HURWITZ_TOL}",
            eigenvalue=complex(worst),
        )
    n = len(A)
    eye = np.eye(n)
    sigma = np.linalg.solve(
        np.kron(A, eye) + np.kron(eye, A), -np.asarray(D, dtype=float).ravel()
    ).reshape(n, n)
    sigma = 0.5 * (sigma + sigma.T)
    residual = float(np.linalg.norm(A @ sigma + sigma @ A.T + D)) / (
        2.0 * np.linalg.norm(A) * np.linalg.norm(sigma) + np.linalg.norm(D)
    )
    if residual > LYAPUNOV_RESIDUAL_TOL:
        raise SolverConvergenceError(f"relative Lyapunov residual {residual:.3e}")
    out = CovarianceMatrix(sigma)
    out.validate_physical()
    return out


# ---------------------------------------------------------------------------
# Closed-form Gaussian entropy budget
# ---------------------------------------------------------------------------

def _husimi_covariance(sigma: CovarianceMatrix, m: int):
    """Sigma = sigma + I/2 of an m-mode model and its Cholesky factor L."""
    if sigma.sigma.shape != (2 * m, 2 * m):
        raise DimensionError(
            f"covariance {sigma.sigma.shape} does not match a {m}-mode model"
        )
    Sigma = sigma.sigma + 0.5 * np.eye(2 * m)
    try:
        L = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError as exc:
        raise InvalidCovarianceError("sigma + I/2 is not positive definite") from exc
    return Sigma, L


def gaussian_budget(
    sigma: CovarianceMatrix,
    G: np.ndarray,
    losses,
    alpha: complex,
    N: int,
) -> EntropyBudget:
    """Entropy budget of the Gaussian state of the model (G, losses).

    With Sigma = sigma + I/2 the Husimi function is the centered normal
    density with covariance Sigma (per-mode measure d^2 nu = dq dp / 2);
    k_i is the loss rate of mode i:

      * Wehrl entropy: S = m (1 + ln pi) + (1/2) ln det Sigma.
      * Fluctuation flux per mode: Phi_q,i = k_i (Sigma_qq + Sigma_pp - 2).
      * Dissipative production per mode: the loss current gives
        |J^nu|^2/Q = (k_i^2/2) |((I - Sigma^{-1}) r)_{(q,p)}|^2 Q, so
        Pi_d,i = k_i [ (M Sigma M^T)_qq + (M Sigma M^T)_pp ],
        M = I - Sigma^{-1}, and M Sigma M^T = Sigma - 2I + Sigma^{-1}.
      * Unitary production: Pi_u = (1/2) tr(D_u Sigma^{-1}).
      * Mean-field flux of the last (cavity) mode: Phi_ext = 2 k_m N |alpha|^2.

    At the Lyapunov fixed point these obey Pi_u + sum_i Pi_d,i =
    sum_i Phi_q,i identically.  The headline Phi_q / Pi_d are the last
    mode's; the other modes' sums are Phi_q_b / Pi_d_b (None for m = 1).

    Each term is checked against its exact estimator mean
    (``estimator_means``, built from the Cholesky factor of Sigma, not
    from its inverse): |exact - closed| must stay within
    ``ESTIMATOR_CHECK_TOL`` (|closed| + Phi_q + Phi_q_b + 2 sum_i k_i),
    or ``WehrlFluxError`` names every term that is off.
    """
    m = _mode_count(G, losses)
    Sigma, L = _husimi_covariance(sigma, m)
    # Sigma has a Cholesky factor, so its determinant is positive
    _, logdet = np.linalg.slogdet(Sigma)
    S = m * (1.0 + math.log(math.pi)) + 0.5 * logdet

    P = np.linalg.inv(Sigma)
    T = Sigma - 2.0 * np.eye(2 * m) + P
    k = np.asarray(losses, dtype=float)
    phi_q = k * (np.diag(Sigma).reshape(m, 2).sum(axis=1) - 2.0)
    pi_d = k * np.diag(T).reshape(m, 2).sum(axis=1)
    phi_q_b = float(phi_q[:-1].sum()) if m > 1 else None
    pi_d_b = float(pi_d[:-1].sum()) if m > 1 else None
    pi_u = 0.5 * float(np.trace(unitary_diffusion(G) @ P))

    phi_ext = 2.0 * k[-1] * N * abs(alpha) ** 2
    budget = EntropyBudget(
        S=float(S),
        Phi_ext=float(phi_ext),
        Phi_q=float(phi_q[-1]),
        Pi_u=pi_u,
        Pi_d=float(pi_d[-1]),
        alpha=complex(alpha),
        Phi_q_b=phi_q_b,
        Pi_d_b=pi_d_b,
    )
    if budget.balance_rel > 1e-6:
        log.warning("Gaussian fluctuation balance off by %.3e", budget.balance_rel)
    gross = budget.Phi_q + (budget.Phi_q_b or 0.0) + 2.0 * sum(losses)
    off = []
    for name, exact in _exact_means(L, G, losses).items():
        closed = getattr(budget, name)
        if not abs(exact - closed) <= ESTIMATOR_CHECK_TOL * (abs(closed) + gross):
            off.append(
                f"{name} (exact {exact:.6g}, closed form {closed:.6g}, "
                f"off by {exact - closed:.3g})"
            )
    if off:
        raise WehrlFluxError(f"estimator check failed for {', '.join(off)}")
    return budget


def dicke_point(p: DickeParams, N: int = 1):
    """Full pipeline at one coupling: returns (budget, sigma, hp, mf)."""
    mf = mean_field_fixed_point(p)
    hp = hp_coefficients(mf, p)
    G, losses = hamiltonian_quadratic_form(hp, p), (p.gamma, p.kappa)
    sigma = solve_lyapunov(*drift_diffusion(G, losses))
    budget = gaussian_budget(sigma, G, losses, mf.alpha, N)
    return budget, sigma, hp, mf


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloBudget:
    """Sampled entropy budget with one standard error per estimate.

    Phi_q / Pi_d are the last mode's, Phi_q_b / Pi_d_b the other modes'
    sums (None, with their errors, for one mode), as in ``gaussian_budget``.
    """

    S: float
    Pi_d: float
    Pi_u: float
    Phi_q: float
    S_stderr: float
    Pi_d_stderr: float
    Pi_u_stderr: float
    Phi_q_stderr: float
    samples: int
    Phi_q_b: float | None = None
    Pi_d_b: float | None = None
    Phi_q_b_stderr: float | None = None
    Pi_d_b_stderr: float | None = None


def _check_count(name: str, value, lowest: int):
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < lowest:
        raise ValueError(f"{name} must be an integer >= {lowest}, got {value!r}")


def _whitened_estimators(L: np.ndarray, G: np.ndarray, losses):
    """(lin, weights, offset, names) of the estimators of the model
    (G, losses) whose Husimi covariance has the Cholesky factor L.

    The estimators' values on the draws z are ``offset + weights @ y``,
    averaged over the rows of y = (z @ lin)^2, in the order of ``names``.
    """
    m = len(losses)
    L_inv = np.linalg.inv(L)
    w, V = np.linalg.eigh(L_inv @ unitary_diffusion(G) @ L_inv.T)
    # the columns of z @ lin are M r = (L - L^{-T}) z, r = L z and V^T z
    lin = np.hstack([(L - L_inv.T).T, L.T, V])
    # rows S, Pi_u, Pi_d, Phi_q, Pi_d_b, Phi_q_b: each estimator is a
    # weighted sum of the squared columns plus a constant
    k = np.repeat(np.asarray(losses, dtype=float), 2)
    last = np.arange(2 * m) >= 2 * m - 2
    modes = np.array([k * last, k * ~last])  # the last mode, the others
    weights = np.zeros((6, 6 * m))
    weights[0, 4 * m:] = 0.5
    weights[1, 4 * m:] = 0.5 * w
    weights[2::2, :2 * m] = modes
    weights[3::2, 2 * m:4 * m] = modes
    # -ln Q(r) = |z|^2 / 2 + m ln pi + (1/2) ln det Sigma
    s_0 = m * math.log(math.pi) + float(np.log(np.diag(L)).sum())
    offset = np.array([s_0, 0.0, 0.0, -modes[0].sum(), 0.0, -modes[1].sum()])
    names = ("S", "Pi_u", "Pi_d", "Phi_q", "Pi_d_b", "Phi_q_b")[:4 if m == 1 else 6]
    return lin, weights, offset, names


def estimator_means(sigma: CovarianceMatrix, G: np.ndarray, losses) -> dict:
    """Exact expectations of ``mc_gaussian_budget``'s estimators, by name.

    Each estimator is ``offset + weights @ (z @ lin)^2`` for z ~ N(0, I),
    so its mean is ``offset + weights @ (lin^2).sum(axis=0)``: the value
    the sampled oracle converges to, without its noise.  It is built from
    the same whitened matrices (L - L^{-T} and L^{-1} D_u L^{-T}), not
    from the inverse and traces of ``gaussian_budget``, which checks its
    closed forms against these means through that independent route;
    they agree to roundoff.  Keys are those of the model's
    ``MonteCarloBudget`` values: S, Pi_u, Pi_d and Phi_q, plus Pi_d_b and
    Phi_q_b for two or more modes.
    """
    _, L = _husimi_covariance(sigma, _mode_count(G, losses))
    return _exact_means(L, G, losses)


def _exact_means(L: np.ndarray, G: np.ndarray, losses) -> dict:
    """``estimator_means`` from the Cholesky factor L of Sigma."""
    lin, weights, offset, names = _whitened_estimators(L, G, losses)
    means = offset + weights @ (lin * lin).sum(axis=0)
    return dict(zip(names, means.tolist()))


@one_blas_thread
def mc_gaussian_budget(
    sigma: CovarianceMatrix,
    G: np.ndarray,
    losses,
    samples: int = 10 ** 6,
    seed: int = 0,
) -> MonteCarloBudget:
    """Monte-Carlo quadrature of the defining entropy-rate integrals.

    A counter-based Philox generator keyed by ``seed`` (an integer >= 0)
    draws ``samples`` (an integer >= 1) normal vectors z ~ N(0, I) in
    batches of ``MC_CHUNK``; each z stands for the sample r = L z of the
    Gaussian Husimi distribution itself (no importance weights).  A seed
    gives the same draws for any batch size, but the sums are grouped by
    batch, so another ``MC_CHUNK`` moves the results in the last digits
    (~1e-16 relative).  Estimators, with r ~ N(0, Sigma) over m modes,
    density p(r), Q = 2^m p under the per-mode d^2 nu measure:

      * S      = E[-ln Q(r)]
      * Phi_q,i = k_i E[ r_q^2 + r_p^2 - 2 ] on mode i, the fluctuation
        flux 2 k_i int (|nu|^2 - 1) Q
      * Pi_d,i = k_i E[ ((M r)_q)^2 + ((M r)_p)^2 ] on mode i,
        M = I - Sigma^{-1} (the loss-current integrand |J|^2 / Q^2 per
        sample)
      * Pi_u = (1/2) E[ (grad ln Q)^T D_u (grad ln Q) ], the gradient
        form of -int U(Q) ln Q after integrating the drift and diffusion
        terms by parts (exact for any normalized decaying Q; the drift
        term tr(Omega G) vanishes); grad ln Q = -Sigma^{-1} r per sample.

    The integrands are evaluated in whitened coordinates.  With
    Sigma = L L^T each sample is r = L z for the drawn z ~ N(0, I), so

        r^T Sigma^{-1} r = |z|^2,    M r = (L - L^{-T}) z,
        (grad ln Q)^T D_u (grad ln Q) = z^T W z,   W = L^{-1} D_u L^{-T},

    and with W = V diag(w) V^T (V orthogonal, so |z|^2 = |V^T z|^2) every
    estimator is a constant plus a weighted sum of squares of the columns
    of z @ [(L - L^{-T})^T, L^T, V]; ``estimator_means`` gives their exact
    expectations.  The small matrices are built once from L and its
    inverse; a batch is two narrow matrix products and two
    row-wise sums.  The call runs on one BLAS thread (``one_blas_thread``):
    products this narrow gain nothing from a second thread, which only
    spins and doubles the CPU time.  ``MC_CHUNK`` = 2^13 rows keeps a
    batch's arrays (about 1.4 MB for two modes) inside a 2 MB per-core L2
    cache and the process small; on a 2-vCPU Xeon VM 2^12 and 2^13 rows
    were never slower than larger batches, and 2^17 rows ran 15-30 %
    slower.  Drawing the normals is about two thirds of the time.
    """
    _check_count("samples", samples, 1)
    _check_count("seed", seed, 0)
    _, L = _husimi_covariance(sigma, _mode_count(G, losses))
    lin, weights, offset, names = _whitened_estimators(L, G, losses)

    rng = np.random.Generator(np.random.Philox(key=seed))
    tot = np.zeros(6)
    tot2 = np.zeros(6)
    done = 0
    while done < samples:
        n = min(MC_CHUNK, samples - done)
        z = rng.standard_normal((n, len(lin)))
        y = z @ lin
        y *= y
        vals = weights @ y.T
        tot += vals.sum(axis=1)
        tot2 += np.einsum("ij,ij->i", vals, vals)
        done += n

    mean = tot / samples
    err = np.sqrt(np.maximum(tot2 / samples - mean ** 2, 0.0) / samples)
    mean += offset
    fields = {}
    for name, value, stderr in zip(names, mean.tolist(), err.tolist()):
        fields[name], fields[name + "_stderr"] = value, stderr
    return MonteCarloBudget(samples=samples, **fields)


# ---------------------------------------------------------------------------
# Critical scans
# ---------------------------------------------------------------------------

def fit_power_law(lams, values, lambda_c: float, window=DIVERGENCE_WINDOW):
    """Per-side log-log slopes of ``values`` against |lambda_c - lambda|.

    ``window`` bounds the relative distance |lambda/lambda_c - 1| used in
    the fit; points inside the lower bound sit in the gamma-rounded core
    and are excluded.  Returns ((slope, stderr, npts) left, same right).
    A ``lambda_c`` that is not a finite number > 0, or a coupling or value
    that is not finite, raises ``ValueError``.
    """
    if not (math.isfinite(lambda_c) and lambda_c > 0):
        raise ValueError(f"lambda_c must be a finite number > 0, got {lambda_c!r}")
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    if not (np.isfinite(lams).all() and np.isfinite(values).all()):
        raise ValueError("couplings and values must be finite")
    rel = lams / lambda_c - 1.0
    out = []
    for side in (-1, 1):
        mask = (
            (np.sign(rel) == side)
            & (np.abs(rel) >= window[0])
            & (np.abs(rel) <= window[1])
            & (values > 0)
        )
        if mask.sum() < 5:
            raise SolverConvergenceError(
                f"only {int(mask.sum())} usable points on side {side}; need >= 5"
            )
        x = np.log10(np.abs(lambda_c - lams[mask]))
        y = np.log10(values[mask])
        coeffs, cov = np.polyfit(x, y, 1, cov=True)
        out.append((float(coeffs[0]), float(math.sqrt(cov[0, 0])), int(mask.sum())))
    return out[0], out[1]


@dataclass(frozen=True)
class KinkReport:
    left_slope: float
    right_slope: float
    left_noise: float
    right_noise: float
    jump_estimate: float
    jump_bound: float


def kink_detector(p_base: DickeParams, lambda_grid) -> KinkReport:
    """One-sided slopes of the unitary production at the critical coupling.

    Uses two- and three-point one-sided stencils on the grid points nearest
    lam_c; their difference estimates the finite-difference noise floor.
    The jump estimate extrapolates both sides linearly to lam_c and must
    stay below the grid-resolution bound for a continuous curve.
    """
    lc = critical_coupling(p_base)
    lams = np.sort(np.asarray(lambda_grid, dtype=float))
    if lams.min() >= lc or lams.max() <= lc:
        raise ValueError("lambda_grid must straddle the critical coupling")

    def _pi_u(lam: float) -> float:
        p = DickeParams(p_base.omega0, p_base.omega, p_base.kappa, lam, p_base.gamma)
        budget, *_ = dicke_point(p)
        return budget.Pi_u

    left = lams[lams < lc][-3:]
    right = lams[lams > lc][:3]
    if len(left) < 3 or len(right) < 3:
        raise ValueError("need at least three grid points on each side of lam_c")
    pi_c = _pi_u(lc)
    sides = {}
    for name, pts in (("left", left[::-1]), ("right", right)):
        # pts[0] is nearest to lam_c
        y = np.array([_pi_u(x) for x in pts])
        h1 = pts[0] - lc
        h2 = pts[1] - lc
        slope2 = (y[0] - pi_c) / h1
        # three-point one-sided derivative at lam_c on a general stencil
        slope3 = (
            pi_c * (-(h1 + h2) / (h1 * h2))
            + y[0] * (h2 / (h1 * (h2 - h1)))
            + y[1] * (-h1 / (h2 * (h2 - h1)))
        )
        sides[name] = (float(slope3), abs(float(slope3 - slope2)), y, pts)
    sl, nl, y_l, pts_l = sides["left"]
    sr, nr, y_r, pts_r = sides["right"]
    extrap_l = y_l[0] + sl * (lc - pts_l[0])
    extrap_r = y_r[0] + sr * (lc - pts_r[0])
    h = max(abs(pts_l[0] - lc), abs(pts_r[0] - lc))
    jump = abs(extrap_l - extrap_r)
    bound = (abs(sl) + abs(sr)) * h + 2.0 * (nl + nr) * h
    return KinkReport(sl, sr, nl, nr, jump, bound)
