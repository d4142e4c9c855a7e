"""Husimi-function machinery: grids, analytic derivatives, entropy rates.

The Husimi function of a single mode is Q(mu) = <mu|rho|mu> / pi with the
flat measure d^2 mu = dRe(mu) dIm(mu).  Derivatives are evaluated
analytically,

    d Q / d mubar = -mu Q + <mu| a rho |mu> / pi,
    d Q / d mu    = conj(d Q / d mubar)          (Q is real),

never by finite differences.  Both come from one product per chunk of
nodes: with C the matrix whose columns are the coherent components
c(mu) and R = rho C, Q = conj(c)^T R / pi column by column, and since
(a rho)_{n,m} = sqrt(n+1) rho_{n+1,m}, the matrix (a rho) C is R shifted
up one row with row n scaled by sqrt(n+1).  So <mu| a rho |mu> is
sum_n sqrt(n+1) conj(c_n) R_{n+1} and no operator is ever built.  C
itself comes from the rescaled recurrence c_n = c_{n-1} mu / sqrt(n).

On top of Q the module computes:

  * Wehrl entropy        S = -int Q ln Q
  * entropy flux         Phi = 2 kappa <a^dag a>, split into a mean-field
    part 2 kappa N |alpha|^2 (alpha = <a>/sqrt(N)) and a fluctuation part
    2 kappa <da^dag da>
  * dissipative production  Pi_d = (2/kappa) int |J^nu|^2 / Q, where
    J^nu = kappa (nu Q + dQ/dnubar) is the loss current in coordinates
    displaced by the order parameter, nu = mu - alpha sqrt(N)
  * unitary production of the Kerr nonlinearity (exact single-mode form)
      Pi_u = (i u / 2N) int (1/Q) [mu^2 (dQ/dmu)^2 - mubar^2 (dQ/dmubar)^2]

The leading-order (Gaussian) budget of a quadratic model, Pi_u included,
is closed-form and lives in ``dicke_gaussian.gaussian_budget``.

Quadrature is a tensor trapezoidal rule on a uniform grid; Husimi
functions are smooth and exponentially localized, so the rule converges
geometrically and reproduces identically across implementations.

Fixed settings are module constants: the default grid size
``POINTS_PER_AXIS``, the extent of ``auto_grid`` (``GRID_WIDTH_SIGMAS``,
``SUPPORT_TAIL``), and ``MASS_TOL``, ``Q_FLOOR_RATIO``, ``BALANCE_TOL``
and ``PI_U_IMAG_TOL``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    MassDeficitError,
    QuadratureError,
    StateValidationError,
)
from .fock_algebra import (
    DensityMatrix,
    mean_amplitude,
    mean_photon_number,
)
from .liouvillian import KerrParams

log = logging.getLogger(__name__)

MASS_TOL = 1e-6
BALANCE_TOL = 1e-2
Q_FLOOR_RATIO = 1e-14
MIN_POINTS_PER_AXIS = 64
POINTS_PER_AXIS = 128
GRID_WIDTH_SIGMAS = 6.0
SUPPORT_TAIL = 1e-13
PI_U_IMAG_TOL = 1e-6
_NODE_CHUNK = 8192


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform rectangular grid with tensor trapezoidal weights.

    ``nodes`` are the complex quadrature points, ``weights`` the matching
    d^2 mu weights; they sum to the covered area (2 half_width)^2.
    """

    center: complex
    half_width: float
    points_per_axis: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points_per_axis - 1)


def build_grid(center: complex, half_width: float, points_per_axis: int) -> PhaseSpaceGrid:
    if half_width <= 0:
        raise DimensionError(f"half_width must be > 0, got {half_width}")
    if points_per_axis < MIN_POINTS_PER_AXIS:
        raise DimensionError(
            f"points_per_axis must be >= {MIN_POINTS_PER_AXIS}, got {points_per_axis}"
        )
    axis = np.linspace(-half_width, half_width, points_per_axis)
    w1 = np.full(points_per_axis, axis[1] - axis[0])
    w1[0] *= 0.5
    w1[-1] *= 0.5
    re, im = np.meshgrid(axis, axis, indexing="ij")
    nodes = complex(center) + re + 1j * im
    weights = np.outer(w1, w1)
    return PhaseSpaceGrid(
        complex(center), float(half_width), int(points_per_axis),
        nodes.ravel(), weights.ravel(),
    )


def auto_grid(
    rho: DensityMatrix, points_per_axis: int = POINTS_PER_AXIS
) -> PhaseSpaceGrid:
    """Grid centered on <a> and wide enough for the state's fluctuations.

    half_width starts from GRID_WIDTH_SIGMAS * max(1, sqrt(<da^dag da> + 1)),
    which captures all but ~1e-8 of Gaussian-like mass and inflates where
    the order-parameter variance grows.  A weak far lobe (onset of
    bistability) can carry mass without moving the variance, so the grid
    additionally covers the disk |mu| <= sqrt(n_eff) + buffer, where n_eff
    is the highest Fock level populated above ``SUPPORT_TAIL``.
    """
    mean_a = mean_amplitude(rho)
    var = mean_photon_number(rho) - abs(mean_a) ** 2
    half_width = GRID_WIDTH_SIGMAS * max(1.0, math.sqrt(max(var, 0.0) + 1.0))
    populations = np.abs(np.diag(rho.entries).real)
    populated = np.nonzero(populations > SUPPORT_TAIL)[0]
    if populated.size:
        radius = math.sqrt(populated[-1] + 1.0) + 0.75 * GRID_WIDTH_SIGMAS
        half_width = max(half_width, radius + abs(mean_a))
    return build_grid(mean_a, half_width, points_per_axis)


# ---------------------------------------------------------------------------
# Field construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpaceField:
    """Husimi values and analytic derivatives sampled on a grid."""

    grid: PhaseSpaceGrid
    Q: np.ndarray = field(repr=False)
    dQ_dmubar: np.ndarray = field(repr=False)
    mass: float

    @property
    def dQ_dmu(self) -> np.ndarray:
        """dQ/dmu, the conjugate of dQ/dmubar since Q is real."""
        return self.dQ_dmubar.conj()

    def current(self, kappa: float, displacement: complex = 0.0) -> np.ndarray:
        """Loss current kappa (nu Q + dQ/dnubar) with nu = mu - displacement."""
        nu = self.grid.nodes - complex(displacement)
        return kappa * (nu * self.Q + self.dQ_dmubar)


def husimi_field(
    rho: DensityMatrix, grid: PhaseSpaceGrid, mass_tol: float = MASS_TOL
) -> PhaseSpaceField:
    """Evaluate Q and its analytic first derivatives on the grid.

    Fails with a mass-deficit error when the quadrature mass of Q strays
    from 1 by more than ``mass_tol`` (grid too small or misplaced).
    """
    dim = rho.dim
    # row n + 1 of R = rho C, scaled by sqrt(n + 1), is row n of (a rho) C
    shift_weights = np.sqrt(np.arange(1, dim))
    nodes = grid.nodes
    Q = np.empty(nodes.size)
    E = np.empty(nodes.size, dtype=complex)
    for start in range(0, nodes.size, _NODE_CHUNK):
        sl = slice(start, min(start + _NODE_CHUNK, nodes.size))
        C = _coherent_matrix(nodes[sl], dim)
        R = rho.entries @ C
        np.conjugate(C, out=C)
        Q[sl] = np.einsum("nk,nk->k", C, R).real / math.pi
        E[sl] = np.einsum("n,nk,nk->k", shift_weights, C[:-1], R[1:]) / math.pi
    qmin = Q.min()
    if qmin < -1e-8:
        raise StateValidationError(f"Husimi function dips to {qmin:.3e}")
    Q = np.clip(Q, 0.0, None)
    dQ_dmubar = -nodes * Q + E
    mass = float(np.dot(grid.weights, Q))
    if abs(mass - 1.0) > mass_tol:
        raise MassDeficitError(
            f"quadrature mass {mass:.8f} deviates from 1 beyond {mass_tol}; "
            "enlarge or re-center the grid"
        )
    return PhaseSpaceField(grid, Q, dQ_dmubar, mass)


def _coherent_matrix(nodes: np.ndarray, dim: int) -> np.ndarray:
    """Columns of coherent-state components c_n(mu) for each node.

    By the recurrence c_0 = exp(-|mu|^2/2), c_n = c_{n-1} mu / sqrt(n), run
    on columns scaled by exp(s), s = |mu|^2/2 - 600 clipped to [0, 700]:
    c_0 stays at or above exp(-600), so no entry above ~1e-290 underflows
    where |mu| is large, and no scaled entry exceeds exp(700).
    """
    half_abs2 = 0.5 * np.abs(nodes) ** 2
    s = np.clip(half_abs2 - 600.0, 0.0, 700.0)
    C = np.empty((dim, nodes.size), dtype=complex)
    C[0] = np.exp(s - half_abs2)
    C[1:] = nodes / np.sqrt(np.arange(1, dim))[:, None]
    for n in range(1, dim):
        C[n] *= C[n - 1]
    C *= np.exp(-s)
    return C


# ---------------------------------------------------------------------------
# Entropy and flux
# ---------------------------------------------------------------------------

def wehrl_entropy(f: PhaseSpaceField) -> float:
    """-int Q ln Q with the convention 0 ln 0 = 0."""
    Q = f.Q
    pos = Q > 0
    return float(-np.dot(f.grid.weights[pos], Q[pos] * np.log(Q[pos])))


def entropy_flux(rho: DensityMatrix, kappa: float) -> float:
    """Phi = 2 kappa <a^dag a> >= 0."""
    return 2.0 * kappa * mean_photon_number(rho)


def flux_split(rho: DensityMatrix, kappa: float, N: int) -> tuple[float, float]:
    """(Phi_ext, Phi_q): mean-field and fluctuation parts of the flux.

    Phi_ext = 2 kappa N |alpha|^2 with alpha = <a>/sqrt(N); Phi_q is the
    remainder 2 kappa <da^dag da>, so the two add up to Phi exactly.
    """
    phi = entropy_flux(rho, kappa)
    alpha = mean_amplitude(rho) / math.sqrt(N)
    phi_ext = 2.0 * kappa * N * abs(alpha) ** 2
    phi_q = phi - phi_ext
    if phi_q < -1e-9:
        raise StateValidationError(f"negative fluctuation flux {phi_q:.3e}")
    return phi_ext, max(phi_q, 0.0)


# ---------------------------------------------------------------------------
# Entropy production integrals
# ---------------------------------------------------------------------------

def _floor_mask(f: PhaseSpaceField, q_floor_ratio: float):
    """Nodes kept in 1/Q integrals, plus the excluded mass fraction.

    |J|^2/Q decays faster than Q in Gaussian tails, so dropping nodes with
    Q below q_floor_ratio * max(Q) biases the integral by less than the
    quadrature error; the excluded mass is reported for monitoring.
    """
    floor = q_floor_ratio * f.Q.max()
    mask = f.Q > floor
    excluded = float(np.dot(f.grid.weights[~mask], f.Q[~mask]))
    return mask, excluded


def pi_d(
    f: PhaseSpaceField,
    kappa: float,
    alpha: complex,
    N: int,
    q_floor_ratio: float = Q_FLOOR_RATIO,
) -> float:
    """Dissipative entropy production (2/kappa) int |J^nu|^2 / Q.

    The current is evaluated in coordinates displaced by the order
    parameter, nu = mu - alpha sqrt(N); derivatives are unchanged by the
    displacement.
    """
    mask, excluded = _floor_mask(f, q_floor_ratio)
    J = f.current(kappa, displacement=complex(alpha) * math.sqrt(N))
    integrand = np.abs(J[mask]) ** 2 / f.Q[mask]
    val = (2.0 / kappa) * float(np.dot(f.grid.weights[mask], integrand))
    log.debug("pi_d: excluded mass %.3e", excluded)
    return val


def pi_u_kerr(
    f: PhaseSpaceField,
    u: float,
    N: int,
    q_floor_ratio: float = Q_FLOOR_RATIO,
) -> float:
    """Unitary entropy production of the Kerr term, exact integrand.

    Pi_u = (i u / 2N) int (1/Q) [mu^2 (dQ/dmu)^2 - mubar^2 (dQ/dmubar)^2].
    The drive and detuning contributions integrate to zero identically, so
    only the nonlinearity appears.  The integrand is a difference of
    conjugates, hence purely real up to roundoff; the imaginary residue is
    monitored and must stay below ``PI_U_IMAG_TOL``.
    """
    mask, excluded = _floor_mask(f, q_floor_ratio)
    mu = f.grid.nodes[mask]
    z = (mu * f.dQ_dmu[mask]) ** 2 - (mu.conj() * f.dQ_dmubar[mask]) ** 2
    total = (1j * u / (2.0 * N)) * np.dot(f.grid.weights[mask], z / f.Q[mask])
    if abs(total.imag) > PI_U_IMAG_TOL:
        raise QuadratureError(
            f"unitary production has imaginary residue {total.imag:.3e}"
        )
    if abs(total.imag) > 1e-8:
        log.warning("pi_u_kerr imaginary residue %.3e", total.imag)
    log.debug("pi_u_kerr: excluded mass %.3e", excluded)
    return float(total.real)


# ---------------------------------------------------------------------------
# Entropy budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyBudget:
    """Entropy bookkeeping of one steady state.

    All rates are in nats per unit time.  ``Pi_ext`` is by construction the
    same number as ``Phi_ext`` (mean-field production flows straight to the
    environment), so it is exposed as an alias of the stored value.  The
    optional b-channel entries carry the stabilizer-mode contributions of
    two-mode Gaussian budgets; they are None for single-mode states.
    """

    S: float
    dSdt: float
    Phi_ext: float
    Phi_q: float
    Pi_u: float
    Pi_d: float
    alpha: complex
    N: int
    balance_rel: float
    mass: float = 1.0
    Phi_q_b: float | None = None
    Pi_d_b: float | None = None

    @property
    def Pi_ext(self) -> float:
        return self.Phi_ext

    @property
    def Pi_total(self) -> float:
        extra = (self.Pi_d_b or 0.0)
        return self.Pi_ext + self.Pi_u + self.Pi_d + extra


def entropy_budget(
    rho: DensityMatrix,
    p: KerrParams,
    grid: PhaseSpaceGrid,
    mass_tol: float = MASS_TOL,
    q_floor_ratio: float = Q_FLOOR_RATIO,
) -> EntropyBudget:
    """Assemble the full entropy budget of a Kerr steady state.

    The caller must supply a certified steady state; at such a state the
    fluctuation balance |Pi_u + Pi_d - Phi_q| / Phi_q is recorded and a
    violation beyond ``BALANCE_TOL`` is logged (grid refinement hint), not
    raised.
    """
    field_ = husimi_field(rho, grid, mass_tol=mass_tol)
    alpha = mean_amplitude(rho) / math.sqrt(p.N)
    phi_ext, phi_q = flux_split(rho, p.kappa, p.N)
    s_wehrl = wehrl_entropy(field_)
    piu = pi_u_kerr(field_, p.u, p.N, q_floor_ratio=q_floor_ratio)
    pid = pi_d(field_, p.kappa, alpha, p.N, q_floor_ratio=q_floor_ratio)
    balance_rel = abs(piu + pid - phi_q) / max(phi_q, 1e-12)
    if balance_rel > BALANCE_TOL:
        log.info(
            "fluctuation balance off by %.3e (Pi_u=%.3e, Pi_d=%.3e, Phi_q=%.3e); "
            "consider refining the grid",
            balance_rel, piu, pid, phi_q,
        )
    return EntropyBudget(
        S=s_wehrl,
        dSdt=piu + pid - phi_q,
        Phi_ext=phi_ext,
        Phi_q=phi_q,
        Pi_u=piu,
        Pi_d=pid,
        alpha=alpha,
        N=p.N,
        balance_rel=balance_rel,
        mass=field_.mass,
    )
