"""Kerr closed forms that need no generator, in numpy alone: the
mean-field branches, the bistable window, the Fock cutoff rule and the
exact photon-number distribution.  The generator that the rule sizes lives
in ``liouvillian``, and the sweep in ``kerr_model``.

The mean-field photon number n = |alpha|^2 of the driven Kerr mode solves

    eps^2 = n [ kappa^2 + (Delta + n u)^2 ],

a cubic in n with one or three non-negative roots.  For Delta < 0 and
Delta^2 > 3 kappa^2 the response is S-shaped; the turning points sit at

    n_pm = (-2 Delta pm sqrt(Delta^2 - 3 kappa^2)) / (3u)

and the drive values eps(n_pm) delimit the bistable window.  Note the
upper turning point carries the lower drive: eps(n_minus) > eps(n_plus).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .budget import KerrParams

log = logging.getLogger(__name__)

CUTOFF_C1 = 1.5
CUTOFF_C2 = 5.0
CUTOFF_FLOOR = 8
# Largest exact excluded mass sum_{m >= n_max} P(m) a steady state's
# cutoff may leave
CUTOFF_TAIL_TOL = 1e-14


# ---------------------------------------------------------------------------
# Mean field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BistabilityWindow:
    """Turning points of the S-shaped mean-field response.

    ``eps_minus`` is the drive at the lower turning point n_minus,
    ``eps_plus`` the drive at the upper turning point n_plus; numerically
    eps_minus > eps_plus, so the bistable drive interval is
    (eps_lo, eps_hi) = (eps_plus, eps_minus).
    """

    n_minus: float
    n_plus: float
    eps_minus: float
    eps_plus: float

    @property
    def eps_lo(self) -> float:
        return min(self.eps_minus, self.eps_plus)

    @property
    def eps_hi(self) -> float:
        return max(self.eps_minus, self.eps_plus)


def drive_at(p: KerrParams, n: float) -> float:
    """Drive amplitude on the mean-field curve, eps(n)."""
    return math.sqrt(n * (p.kappa ** 2 + (p.delta + n * p.u) ** 2))


def bistability_window(p: KerrParams) -> BistabilityWindow | None:
    """Bistable window, or None when the response is single-valued."""
    disc = p.delta ** 2 - 3.0 * p.kappa ** 2
    if p.delta >= 0 or disc < -1e-12 * max(p.delta ** 2, 1.0):
        return None
    root = math.sqrt(max(disc, 0.0))
    n_minus = (-2.0 * p.delta - root) / (3.0 * p.u)
    n_plus = (-2.0 * p.delta + root) / (3.0 * p.u)
    return BistabilityWindow(
        n_minus=n_minus,
        n_plus=n_plus,
        eps_minus=drive_at(p, n_minus),
        eps_plus=drive_at(p, n_plus),
    )


def mean_field_curve(p: KerrParams, eps: float) -> list[float]:
    """All real non-negative mean-field photon numbers at the given drive.

    Roots of the cubic u^2 n^3 + 2 Delta u n^2 + (Delta^2 + kappa^2) n = eps^2,
    Newton-polished and sorted ascending; one or three values.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    coeffs = [p.u ** 2, 2.0 * p.delta * p.u, p.delta ** 2 + p.kappa ** 2, -eps ** 2]
    roots = np.roots(coeffs)
    scale = max(1.0, eps ** 2)
    out = []
    for r in roots:
        if abs(r.imag) > 1e-9 * max(1.0, abs(r)):
            continue
        n = float(r.real)
        if n < -1e-12:
            continue
        n = max(n, 0.0)
        for _ in range(40):  # Newton polish
            f = n * (p.kappa ** 2 + (p.delta + n * p.u) ** 2) - eps ** 2
            df = p.kappa ** 2 + (p.delta + n * p.u) ** 2 + 2.0 * n * p.u * (
                p.delta + n * p.u
            )
            if df == 0:
                break
            step = f / df
            n -= step
            if abs(step) < 1e-15 * max(1.0, abs(n)):
                break
        resid = abs(n * (p.kappa ** 2 + (p.delta + n * p.u) ** 2) - eps ** 2)
        if resid > 1e-10 * scale:
            log.warning("mean-field root %.6g has residual %.3e", n, resid)
        out.append(max(n, 0.0))
    return sorted(out)


def recommended_cutoff(p: KerrParams) -> int:
    """Fock cutoff n_max = ceil(c1 N n_ref + c2 sqrt(N n_ref)), at least
    ``CUTOFF_FLOOR``, with c1 = ``CUTOFF_C1`` and c2 = ``CUTOFF_C2``.

    The steady state concentrates near photon number N * n with n on the
    mean-field curve; the sqrt buffer absorbs quantum fluctuations.  Inside
    (and just below) the bistable window the upper branch sets the scale.
    """
    roots = mean_field_curve(p, p.eps)
    n_ref = max(roots) if roots else 0.0
    win = bistability_window(p)
    if win is not None and p.eps >= 0.95 * win.eps_lo:
        n_ref = max(n_ref, win.n_plus)
    n_int = p.N * n_ref
    n_cut = CUTOFF_C1 * n_int + CUTOFF_C2 * math.sqrt(n_int)
    return max(CUTOFF_FLOOR, math.ceil(n_cut))


# ---------------------------------------------------------------------------
# Exact photon-number distribution
# ---------------------------------------------------------------------------

def _log_weights(p: KerrParams) -> np.ndarray:
    """ln w(s) - ln w(0) of ``photon_number_distribution``, s = 0, 1, ...,
    for eps > 0.

    w peaks near s = 2 N n at each stable mean-field root n.  The sum runs
    to s = 4 N n + 64 for the largest root before it may stop, then on
    until ln w is falling and 80 below its maximum.  The range matters:
    inside the bistable window ln w dips by about 0.674 N between the
    branches, so a stop at the first such fall would end in the dip once
    N reaches about 120 and drop the upper branch.
    """
    n_top = max(mean_field_curve(p, p.eps), default=0.0)
    c = 2.0 * p.N * complex(p.delta, -p.kappa) / p.u
    two_lam2 = 8.0 * p.eps ** 2 * p.N ** 3 / p.u ** 2
    size = math.ceil(4.0 * p.N * n_top) + 64
    while True:
        j = np.arange(size - 1)
        # one log per ratio, so no large ln|lam| and ln|c + j| cancel
        steps = np.log(two_lam2 / ((j + 1.0) * ((c.real + j) ** 2 + c.imag ** 2)))
        log_w = np.concatenate(([0.0], np.cumsum(steps)))
        if steps[-1] < 0 and log_w[-1] < log_w.max() - 80.0:
            return log_w
        size *= 2


def photon_number_distribution(p: KerrParams) -> np.ndarray:
    """Exact steady-state photon-number distribution P(m), m = 0, 1, ...

    The complex-P solution of the driven Kerr mode (Drummond & Walls,
    J. Phys. A 13, 725 (1980); Bartolo et al., PRA 94, 033841 (2016)),
    grouped by s = m + q, is a binomial mixture over one weight:

        P(m) = sum_s w(s) C(s, m) 2^-s / sum_s w(s),
        ln w(s) = sum_{j<s} [ln(2 |lam|^2) - ln(j+1) - 2 ln|c+j|],

    with c = 2N(Delta - i kappa)/u and |lam|^2 = 4 eps^2 N^3 / u^2.  The
    array ends at the last s summed, where w is below e^-80 of its
    maximum.  At eps = 0, lam = 0 and the state is the vacuum, [1.0].
    The cost is quadratic in the length, about 4 N n + 64 for mean-field
    photon number n (1 ms at N = 30 near eps_c).
    """
    if p.eps == 0:
        return np.ones(1)
    log_w = _log_weights(p)
    weights = np.exp(log_w - log_w.max())
    weights /= weights.sum()
    # Horner in the thinning (B x)(m) = (x(m) + x(m-1)) / 2, for which
    # (B^s e_0)(m) = C(s, m) 2^-s: sums of non-negative terms only
    dist = np.zeros(len(weights))
    for w_s in weights[::-1]:
        dist[1:] = 0.5 * (dist[1:] + dist[:-1])
        dist[0] = 0.5 * dist[0] + w_s
    return dist


def _tail_cutoff(p: KerrParams) -> int:
    """Fewest Fock levels n whose exact excluded mass sum_{m >= n} P(m)
    is below ``CUTOFF_TAIL_TOL``."""
    tail = np.cumsum(photon_number_distribution(p)[::-1])[::-1]
    return int(np.count_nonzero(tail >= CUTOFF_TAIL_TOL))
