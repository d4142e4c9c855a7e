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
counter-based Monte-Carlo quadrature of the defining integrals is
provided as an independent oracle; it draws in batches of ``MC_CHUNK``.
``divergence_scan`` fits inside the fixed band ``DIVERGENCE_WINDOW``.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionError,
    InvalidCovarianceError,
    SingularBranchError,
    SolverConvergenceError,
    UnstableSystemError,
)
from .phase_space import EntropyBudget

log = logging.getLogger(__name__)

# Bound on ||A sigma + sigma A^T + D|| relative to 2 ||A|| ||sigma|| + ||D||.
LYAPUNOV_RESIDUAL_TOL = 1e-12

# Relative coupling distances |lam/lam_c - 1| used for the power-law fit.
# The stabilizer gamma rounds the divergence over a core whose width is set
# by gamma against the soft-mode scale omega0 (not against kappa); at
# gamma = 1e-3 kappa and the reference parameters the local log-log slope
# reaches -1 inside this band and steepens beyond it.
DIVERGENCE_WINDOW = (0.04, 0.12)
PHYSICALITY_TOL = 1e-9
HURWITZ_TOL = 1e-12
# Monte-Carlo samples drawn per vectorized batch.
MC_CHUNK = 2 ** 17

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
        for name in ("omega0", "omega", "kappa", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.gamma > 0.01 * self.kappa:
            warnings.warn(
                f"gamma = {self.gamma:.3g} is not small against kappa = "
                f"{self.kappa:.3g}; the stabilizer should be a weak perturbation",
                stacklevel=2,
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
    reported.
    """
    lc = critical_coupling(p)
    if p.lam <= lc:
        state = MeanFieldState(alpha=0.0 + 0.0j, beta=0.0, w=-0.5)
    else:
        ratio = (lc / p.lam) ** 2
        beta = 0.5 * math.sqrt(1.0 - ratio ** 2)
        w = -0.5 * ratio
        alpha = -2j * p.lam * beta / (p.kappa + 1j * p.omega)
        state = MeanFieldState(alpha=alpha, beta=beta, w=w)
    res = state.residuals(p)
    if max(res) > 1e-12:
        raise SolverConvergenceError(f"fixed-point residuals {res} above 1e-12")
    return state


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

    def validate_physical(self, tol: float = PHYSICALITY_TOL):
        """Uncertainty check: sigma + (i/2) Omega must be positive semidefinite."""
        herm = self.sigma + 0.5j * symplectic_form(len(self.sigma) // 2)
        lam_min = float(np.linalg.eigvalsh(herm).min())
        if lam_min < -tol:
            raise InvalidCovarianceError(
                f"uncertainty violation: min eig(sigma + i Omega/2) = {lam_min:.3e}"
            )
        return lam_min


def solve_lyapunov(
    A: np.ndarray, D: np.ndarray, require_physical: bool = True
) -> CovarianceMatrix:
    """Direct solve of A sigma + sigma A^T + D = 0 for Hurwitz A.

    ``require_physical`` enforces the quantum uncertainty bound on the
    result; disable it when solving generic (non-quadrature) systems.
    """
    eigvals = np.linalg.eigvals(A)
    worst = eigvals[np.argmax(eigvals.real)]
    if worst.real >= -HURWITZ_TOL:
        raise UnstableSystemError(
            f"drift is not Hurwitz: eigenvalue {worst:.6g} has Re >= {-HURWITZ_TOL}",
            eigenvalue=complex(worst),
        )
    sigma = sla.solve_continuous_lyapunov(A, -np.asarray(D, dtype=float))
    sigma = 0.5 * (sigma + sigma.T)
    residual = float(np.linalg.norm(A @ sigma + sigma @ A.T + D)) / (
        2.0 * np.linalg.norm(A) * np.linalg.norm(sigma) + np.linalg.norm(D)
    )
    if residual > LYAPUNOV_RESIDUAL_TOL:
        raise SolverConvergenceError(f"relative Lyapunov residual {residual:.3e}")
    out = CovarianceMatrix(sigma)
    if require_physical:
        out.validate_physical()
    return out


# ---------------------------------------------------------------------------
# Closed-form Gaussian entropy budget
# ---------------------------------------------------------------------------

def _husimi_covariance(sigma: CovarianceMatrix, m: int) -> np.ndarray:
    if sigma.sigma.shape != (2 * m, 2 * m):
        raise DimensionError(
            f"covariance {sigma.sigma.shape} does not match a {m}-mode model"
        )
    Sigma = sigma.sigma + 0.5 * np.eye(2 * m)
    try:
        np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError as exc:
        raise InvalidCovarianceError("sigma + I/2 is not positive definite") from exc
    return Sigma


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
    """
    m = _mode_count(G, losses)
    Sigma = _husimi_covariance(sigma, m)
    sign, logdet = np.linalg.slogdet(Sigma)
    if sign <= 0:
        raise InvalidCovarianceError("det(sigma + I/2) must be positive")
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
    # cavity mode first, then the rest
    total_phi_q = phi_q[-1] + (phi_q_b or 0.0)
    d_s = pi_u + pi_d[-1] + (pi_d_b or 0.0) - total_phi_q
    balance_rel = abs(d_s) / max(total_phi_q, 1e-12)
    if balance_rel > 1e-6:
        log.warning("Gaussian fluctuation balance off by %.3e", balance_rel)
    return EntropyBudget(
        S=float(S),
        dSdt=float(d_s),
        Phi_ext=float(phi_ext),
        Phi_q=float(phi_q[-1]),
        Pi_u=pi_u,
        Pi_d=float(pi_d[-1]),
        alpha=complex(alpha),
        N=N,
        balance_rel=float(balance_rel),
        Phi_q_b=phi_q_b,
        Pi_d_b=pi_d_b,
    )


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
    S: float
    Pi_d: float
    Pi_u: float
    S_stderr: float
    Pi_d_stderr: float
    Pi_u_stderr: float
    samples: int


def mc_gaussian_budget(
    sigma: CovarianceMatrix,
    G: np.ndarray,
    losses,
    samples: int = 10 ** 6,
    seed: int = 0,
) -> MonteCarloBudget:
    """Monte-Carlo quadrature of the defining entropy-rate integrals.

    Draws from the Gaussian Husimi distribution itself (no importance
    weights) with a counter-based Philox generator, in batches of
    ``MC_CHUNK``.  A seed gives the same draws for any batch size, but the
    sums are grouped by batch, so another ``MC_CHUNK`` moves the results
    in the last digits (~1e-16 relative).  Estimators, with r ~ N(0, Sigma)
    over m modes, density p(r), Q = 2^m p under the per-mode d^2 nu measure:

      * S    = E[-ln Q(r)]
      * Pi_d = k_m E[ ((M r)_q)^2 + ((M r)_p)^2 ] on the last mode,
        M = I - Sigma^{-1} (the loss-current integrand |J|^2 / Q^2 per
        sample)
      * Pi_u = (1/2) E[ (grad ln Q)^T D_u (grad ln Q) ], the gradient
        form of -int U(Q) ln Q after integrating the drift and diffusion
        terms by parts (exact for any normalized decaying Q; the drift
        term tr(Omega G) vanishes); grad ln Q = -Sigma^{-1} r per sample.
    """
    m = _mode_count(G, losses)
    Sigma = _husimi_covariance(sigma, m)
    P = np.linalg.inv(Sigma)
    M = np.eye(2 * m) - P
    # (grad ln Q)^T D_u (grad ln Q) = r^T (P D_u P) r
    C = P @ unitary_diffusion(G) @ P
    k_last = float(losses[-1])
    sign, logdet = np.linalg.slogdet(Sigma)
    log_norm = m * math.log(2.0) - m * math.log(2.0 * math.pi) - 0.5 * logdet
    chol = np.linalg.cholesky(Sigma)

    rng = np.random.Generator(np.random.Philox(key=seed))
    acc = {k: (0.0, 0.0) for k in ("S", "Pi_d", "Pi_u")}
    done = 0
    while done < samples:
        n = min(MC_CHUNK, samples - done)
        r = rng.standard_normal((n, 2 * m)) @ chol.T
        s_vals = 0.5 * np.einsum("ij,jk,ik->i", r, P, r) - log_norm
        mr = r @ M.T
        pid_vals = k_last * (mr[:, -2] ** 2 + mr[:, -1] ** 2)
        piu_vals = 0.5 * np.einsum("ij,jk,ik->i", r, C, r)
        for key, vals in (("S", s_vals), ("Pi_d", pid_vals), ("Pi_u", piu_vals)):
            tot, tot2 = acc[key]
            acc[key] = (tot + vals.sum(), tot2 + (vals ** 2).sum())
        done += n

    def _mean_stderr(key):
        tot, tot2 = acc[key]
        mean = tot / samples
        var = max(tot2 / samples - mean ** 2, 0.0)
        return mean, math.sqrt(var / samples)

    (s_mean, s_err), (d_mean, d_err), (u_mean, u_err) = (
        _mean_stderr(k) for k in ("S", "Pi_d", "Pi_u")
    )
    return MonteCarloBudget(s_mean, d_mean, u_mean, s_err, d_err, u_err, samples)


# ---------------------------------------------------------------------------
# Critical scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceFit:
    left_slope: float
    right_slope: float
    left_stderr: float
    right_stderr: float
    n_left: int
    n_right: int
    core_excluded: float


def fit_power_law(lams, values, lambda_c: float, window=DIVERGENCE_WINDOW):
    """Per-side log-log slopes of ``values`` against |lambda_c - lambda|.

    ``window`` bounds the relative distance |lambda/lambda_c - 1| used in
    the fit; points inside the lower bound sit in the gamma-rounded core
    and are excluded.  Returns ((slope, stderr, npts) left, same right).
    """
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
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


def divergence_scan(p_base: DickeParams, lambda_grid) -> DivergenceFit:
    """Power-law exponent of the dissipative production around lam_c.

    Solves the Gaussian pipeline on the grid and fits log10 Pi_d against
    log10 |lam_c - lam| on each side inside ``DIVERGENCE_WINDOW``.
    """
    lc = critical_coupling(p_base)
    lams, pids = [], []
    for lam in lambda_grid:
        p = DickeParams(p_base.omega0, p_base.omega, p_base.kappa, float(lam), p_base.gamma)
        budget, *_ = dicke_point(p)
        lams.append(float(lam))
        pids.append(budget.Pi_d)
    (ls, le, nl), (rs, re, nr) = fit_power_law(lams, pids, lc)
    return DivergenceFit(ls, rs, le, re, nl, nr, DIVERGENCE_WINDOW[0])


@dataclass(frozen=True)
class KinkReport:
    left_slope: float
    right_slope: float
    left_noise: float
    right_noise: float
    pi_u_at_critical: float
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
    return KinkReport(sl, sr, nl, nr, pi_c, jump, bound)
