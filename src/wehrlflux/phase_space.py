"""Husimi-function machinery: grids, analytic derivatives, entropy rates.

The Husimi function of a single mode is Q(mu) = <mu|rho|mu> / pi with the
flat measure d^2 mu = dRe(mu) dIm(mu).  Derivatives are evaluated
analytically,

    d Q / d mubar = -mu Q + <mu| a rho |mu> / pi,
    d Q / d mu    = conj(d Q / d mubar)          (Q is real),

never by finite differences.

The pipeline evaluates both on a polar grid about the origin
(``polar_grid``, ``polar_husimi_field``).  With mu = r e^{i theta} the
coherent components are c_n(mu) = a_n(r) e^{i n theta}, where
a_n(r) = e^{-r^2/2} r^n / sqrt(n!), so

    Q(r, theta) = (1/pi) sum_k e^{i k theta} q_k(r),
    q_k(r) = sum_m rho_{m,m+k} a_m(r) a_{m+k}(r),

a band-limited Fourier series in theta whose coefficients are diagonal
sums of rho.  <mu| a rho |mu> is the same sum over
(a rho)_{m,n} = sqrt(m+1) rho_{m+1,n}, for both signs of k, since a rho
is not Hermitian.  So the Fock work is O(radii dim^2), and one FFT per
radius turns the coefficients into values at 2 dim + 2 equally spaced
angles, which sample Q without aliasing.  The radii sit on
``POLAR_PANELS`` Gauss-Legendre panels of ``POLAR_RADII_PER_PANEL`` nodes
over [0, r_max], with r_max taken from the state's Fock support.

The tensor path (``build_grid``, ``auto_grid``, ``husimi_field``) is the
oracle: a uniform grid of any center and width, with Q and
<mu| a rho |mu> from one product per chunk of nodes.  With C the matrix
whose columns are the coherent components c(mu) and R = rho C,
Q = conj(c)^T R / pi column by column, and the matrix (a rho) C is R
shifted up one row with row n scaled by sqrt(n+1), so no operator is
ever built.  Both paths take their components from
``fock_algebra.coherent_components``.

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

Quadrature on the polar grid is Gauss-Legendre in r and the trapezoidal
rule in theta; on the tensor grid it is the trapezoidal rule in both
axes.  Husimi functions are smooth and exponentially localized, so both
rules converge geometrically.  The integrals below read only nodes,
weights, Q and dQ, so they serve either grid.

Fixed settings are module constants: the polar panels
(``POLAR_PANELS``, ``POLAR_RADII_PER_PANEL``), the default tensor grid
size ``POINTS_PER_AXIS``, the extent of both grids
(``GRID_WIDTH_SIGMAS``, ``SUPPORT_TAIL``), and the tolerances: the
quadrature-mass bound ``MASS_TOL``, the 1/Q floor ``Q_FLOOR_RATIO`` and
``BALANCE_TOL``.  No function takes them as
parameters; each is read when the check runs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .budget import EntropyBudget
from .errors import (
    DimensionError,
    MassDeficitError,
    StateValidationError,
)
from .fock_algebra import (
    DensityMatrix,
    coherent_components,
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
POLAR_PANELS = 4
POLAR_RADII_PER_PANEL = 32
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
    half_width = max(half_width, _support_radius(rho) + abs(mean_a))
    return build_grid(mean_a, half_width, points_per_axis)


def _support_radius(rho: DensityMatrix) -> float:
    """sqrt(n_eff + 1) + 0.75 GRID_WIDTH_SIGMAS, with n_eff the highest Fock
    level whose population exceeds ``SUPPORT_TAIL`` (0 if none does)."""
    populations = np.abs(np.diag(rho.entries).real)
    populated = np.nonzero(populations > SUPPORT_TAIL)[0]
    n_eff = populated[-1] if populated.size else 0
    return math.sqrt(n_eff + 1.0) + 0.75 * GRID_WIDTH_SIGMAS


@dataclass(frozen=True)
class PolarGrid:
    """Polar grid about the origin: Gauss-Legendre radii, each carrying
    ``angles`` equally spaced angles.

    ``nodes`` and ``weights`` are radius-major: flat index a * angles + b
    holds radii[a] exp(2 pi 1j b / angles), with weight
    radii[a] w_a 2 pi / angles, w_a the radial Gauss-Legendre weight.
    """

    radii: np.ndarray = field(repr=False)
    angles: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def polar_grid(rho: DensityMatrix) -> PolarGrid:
    """Polar grid for the Husimi function of rho.

    The radii cover [0, r_max] with ``POLAR_PANELS`` equal Gauss-Legendre
    panels of ``POLAR_RADII_PER_PANEL`` nodes, r_max being ``auto_grid``'s
    support radius sqrt(n_eff + 1) + 0.75 GRID_WIDTH_SIGMAS.  Q has Fourier
    modes |k| < dim in theta, so the trapezoidal rule on 2 dim + 2 angles
    per radius integrates Q, mu Q and |mu|^2 Q exactly in theta.
    """
    x, w = np.polynomial.legendre.leggauss(POLAR_RADII_PER_PANEL)
    edges = np.linspace(0.0, _support_radius(rho), POLAR_PANELS + 1)
    half = 0.5 * np.diff(edges)[:, None]
    radii = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
    w_r = (half * w).ravel()
    angles = 2 * rho.dim + 2
    phases = np.exp(2j * math.pi * np.arange(angles) / angles)
    nodes = (radii[:, None] * phases).ravel()
    weights = np.repeat(radii * w_r * (2.0 * math.pi / angles), angles)
    return PolarGrid(radii, angles, nodes, weights)


# ---------------------------------------------------------------------------
# Field construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpaceField:
    """Husimi values and analytic derivatives sampled on a grid."""

    grid: PhaseSpaceGrid | PolarGrid
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


def husimi_field(rho: DensityMatrix, grid: PhaseSpaceGrid) -> PhaseSpaceField:
    """Evaluate Q and its analytic first derivatives on the grid.

    Fails with a mass-deficit error when the quadrature mass of Q strays
    from 1 by more than ``MASS_TOL`` (grid too small or misplaced).
    """
    dim = rho.dim
    # row n + 1 of R = rho C, scaled by sqrt(n + 1), is row n of (a rho) C
    shift_weights = np.sqrt(np.arange(1, dim))
    nodes = grid.nodes
    Q = np.empty(nodes.size)
    E = np.empty(nodes.size, dtype=complex)
    for start in range(0, nodes.size, _NODE_CHUNK):
        sl = slice(start, min(start + _NODE_CHUNK, nodes.size))
        C = coherent_components(nodes[sl], dim)
        R = rho.entries @ C
        np.conjugate(C, out=C)
        Q[sl] = np.einsum("nk,nk->k", C, R).real / math.pi
        E[sl] = np.einsum("n,nk,nk->k", shift_weights, C[:-1], R[1:]) / math.pi
    return _checked_field(grid, Q, E)


def polar_husimi_field(rho: DensityMatrix, grid: PolarGrid) -> PhaseSpaceField:
    """Q and its analytic first derivatives on a polar grid, with the checks
    of ``husimi_field``.

    For k = 0 .. dim - 1 the diagonal sums q_k(r) of rho, and those of
    a rho for +k and -k, share the radial products a_m(r) a_{m+k}(r); one
    inverse FFT per radius then sums each Fourier series at the grid's
    angles (a real one for Q, whose coefficients of -k are the conjugates).
    """
    dim = rho.dim
    if grid.angles < 2 * dim - 1:
        raise DimensionError(
            f"{grid.angles} angles alias the {2 * dim - 1} Fourier modes of Q"
        )
    # a_m(r) for real r > 0: the phase is exactly 1
    amp = coherent_components(grid.radii, dim).real.T
    entries = rho.entries.astype(complex, copy=False)
    a_rho = np.zeros_like(entries)
    a_rho[:-1] = np.sqrt(np.arange(1, dim))[:, None] * entries[1:]
    q = np.empty((grid.radii.size, dim), dtype=complex)
    e = np.zeros((grid.radii.size, grid.angles), dtype=complex)
    for k in range(dim):
        pair = amp[:, : dim - k] * amp[:, k:]
        diags = np.stack(
            [np.diagonal(entries, k), np.diagonal(a_rho, k), np.diagonal(a_rho, -k)],
            axis=1,
        )
        # a real matrix times a complex one, as one real product
        q[:, k], e[:, k], lower = (pair @ diags.view(float)).view(complex).T
        if k:
            e[:, -k] = lower
    Q = np.fft.irfft(q, n=grid.angles, axis=1, norm="forward").ravel() / math.pi
    E = np.fft.ifft(e, axis=1, norm="forward").ravel() / math.pi
    return _checked_field(grid, Q, E)


def _checked_field(grid, Q, E) -> PhaseSpaceField:
    """Field from Q and E = <mu| a rho |mu> / pi at the grid's nodes.

    Fails when Q dips below -1e-8 (rho not a state) or when its quadrature
    mass strays from 1 by more than ``MASS_TOL`` (grid too small or
    misplaced); otherwise clips Q at 0.
    """
    qmin = Q.min()
    if qmin < -1e-8:
        raise StateValidationError(f"Husimi function dips to {qmin:.3e}")
    Q = np.clip(Q, 0.0, None)
    dQ_dmubar = -grid.nodes * Q + E
    mass = float(np.dot(grid.weights, Q))
    if abs(mass - 1.0) > MASS_TOL:
        raise MassDeficitError(
            f"quadrature mass {mass:.8f} deviates from 1 beyond {MASS_TOL}; "
            "enlarge or re-center the grid"
        )
    return PhaseSpaceField(grid, Q, dQ_dmubar, mass)


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

def _floor_mask(f: PhaseSpaceField):
    """Nodes kept in 1/Q integrals, plus the excluded mass fraction.

    |J|^2/Q decays faster than Q in Gaussian tails, so dropping nodes with
    Q below Q_FLOOR_RATIO * max(Q) biases the integral by less than the
    quadrature error; the excluded mass is reported for monitoring.
    """
    floor = Q_FLOOR_RATIO * f.Q.max()
    mask = f.Q > floor
    excluded = float(np.dot(f.grid.weights[~mask], f.Q[~mask]))
    return mask, excluded


def pi_d(f: PhaseSpaceField, kappa: float, alpha: complex, N: int) -> float:
    """Dissipative entropy production (2/kappa) int |J^nu|^2 / Q.

    The current is evaluated in coordinates displaced by the order
    parameter, nu = mu - alpha sqrt(N); derivatives are unchanged by the
    displacement.
    """
    mask, excluded = _floor_mask(f)
    J = f.current(kappa, displacement=complex(alpha) * math.sqrt(N))
    integrand = np.abs(J[mask]) ** 2 / f.Q[mask]
    val = (2.0 / kappa) * float(np.dot(f.grid.weights[mask], integrand))
    log.debug("pi_d: excluded mass %.3e", excluded)
    return val


def pi_u_kerr(f: PhaseSpaceField, u: float, N: int) -> float:
    """Unitary entropy production of the Kerr term, exact integrand.

    Pi_u = (i u / 2N) int (1/Q) [mu^2 (dQ/dmu)^2 - mubar^2 (dQ/dmubar)^2].
    The drive and detuning contributions integrate to zero identically, so
    only the nonlinearity appears.  The field stores dQ/dmu as the
    conjugate of dQ/dmubar, so the two products in the bracket, and their
    squares, are exact floating-point conjugates: the bracket is exactly
    imaginary and the prefactor puts the sum exactly on the real axis.
    """
    mask, excluded = _floor_mask(f)
    mu = f.grid.nodes[mask]
    z = (mu * f.dQ_dmu[mask]) ** 2 - (mu.conj() * f.dQ_dmubar[mask]) ** 2
    total = (1j * u / (2.0 * N)) * np.dot(f.grid.weights[mask], z / f.Q[mask])
    log.debug("pi_u_kerr: excluded mass %.3e", excluded)
    return float(total.real)


# ---------------------------------------------------------------------------
# Entropy budget (the ``EntropyBudget`` record lives in ``budget``)
# ---------------------------------------------------------------------------

def entropy_budget(
    rho: DensityMatrix,
    p: KerrParams,
    grid: PhaseSpaceGrid | None = None,
) -> EntropyBudget:
    """Assemble the full entropy budget of a Kerr steady state.

    Without a grid, Q is evaluated on ``polar_grid(rho)``, as the sweep
    pipeline does; a tensor ``PhaseSpaceGrid`` evaluates it with the
    oracle ``husimi_field`` instead.  The caller must supply a certified
    steady state; at such a state the fluctuation balance
    |Pi_u + Pi_d - Phi_q| / Phi_q is recorded and a violation beyond
    ``BALANCE_TOL`` is logged (grid refinement hint), not raised.
    """
    if grid is None:
        field_ = polar_husimi_field(rho, polar_grid(rho))
    else:
        field_ = husimi_field(rho, grid)
    alpha = mean_amplitude(rho) / math.sqrt(p.N)
    phi_ext, phi_q = flux_split(rho, p.kappa, p.N)
    s_wehrl = wehrl_entropy(field_)
    piu = pi_u_kerr(field_, p.u, p.N)
    pid = pi_d(field_, p.kappa, alpha, p.N)
    budget = EntropyBudget(
        S=s_wehrl,
        Phi_ext=phi_ext,
        Phi_q=phi_q,
        Pi_u=piu,
        Pi_d=pid,
        alpha=alpha,
        mass=field_.mass,
    )
    if budget.balance_rel > BALANCE_TOL:
        log.info(
            "fluctuation balance off by %.3e (Pi_u=%.3e, Pi_d=%.3e, Phi_q=%.3e); "
            "consider refining the grid",
            budget.balance_rel, piu, pid, phi_q,
        )
    return budget
