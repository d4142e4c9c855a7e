"""Kerr bistability: mean-field branches, drive sweeps and the critical drive.

The mean-field photon number n = |alpha|^2 of the driven Kerr mode solves

    eps^2 = n [ kappa^2 + (Delta + n u)^2 ],

a cubic in n with one or three non-negative roots.  For Delta < 0 and
Delta^2 > 3 kappa^2 the response is S-shaped; the turning points sit at

    n_pm = (-2 Delta pm sqrt(Delta^2 - 3 kappa^2)) / (3u)

and the drive values eps(n_pm) delimit the bistable window.  Note the
upper turning point carries the lower drive: eps(n_minus) > eps(n_plus).

``sweep`` computes one steady-state entropy budget per (N, eps) point,
with the Fock cutoff auto-selected per point, the Husimi integrals on
``phase_space.polar_grid`` and BLAS on one thread (in the serial path and
in every pool worker alike), and ``extrapolate_eps_c`` estimates the
transition drive from the gap minima of its records.  The finite-size
rescaling of the resulting curves, ``collapse_transform``, lives in the
numpy-only ``collapse`` module.

The cutoff rule and its Fock-tail check (``steady_state_certified``, on
every sweep point) are fixed by the module constants ``CUTOFF_C1``,
``CUTOFF_C2``, ``CUTOFF_FLOOR``, ``CUTOFF_TAIL_TOL`` and
``CUTOFF_MAX_ESCALATIONS``.  ``sweep`` takes two keyword-only options,
``threads`` and ``compute_gap``.  The quadrature
tolerances are ``phase_space``'s constants ``MASS_TOL`` and
``Q_FLOOR_RATIO``, which no sweep option overrides.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._blas import one_blas_thread
from .errors import SolverConvergenceError
from .liouvillian import (
    KerrParams,
    build_kerr_liouvillian,
    liouvillian_gap,
    steady_state,
)
from .phase_space import EntropyBudget, entropy_budget

log = logging.getLogger(__name__)

CUTOFF_C1 = 1.5
CUTOFF_C2 = 5.0
CUTOFF_FLOOR = 8
CUTOFF_TAIL_TOL = 1e-10
CUTOFF_MAX_ESCALATIONS = 3


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
# Certified steady states and sweeps
# ---------------------------------------------------------------------------

def steady_state_certified(p: KerrParams):
    """Steady state whose top three Fock levels hold a population below
    ``CUTOFF_TAIL_TOL``, solved first at ``recommended_cutoff(p)`` and then
    at +10 levels, at most ``CUTOFF_MAX_ESCALATIONS`` times, before
    ``SolverConvergenceError``.  Returns (rho, L, n_max_used).

    The tail check adds to the rule and does not replace it.  Near eps_c
    the truncation error is amplified by about 1/gap, so a cutoff below
    the rule can pass the tail check with a wrong state: at N=30, eps 0.93
    every cutoff from 45 to 100 leaves a tail below 1e-10 and gives
    <a^dag a> = 8.02, against 11.35 at the rule's 148.
    """
    first = recommended_cutoff(p)
    for n in range(first, first + 10 * CUTOFF_MAX_ESCALATIONS + 1, 10):
        L = build_kerr_liouvillian(p, n)
        rho = steady_state(L)
        tail = float(np.abs(np.diagonal(rho.entries)[-3:]).sum())
        if tail < CUTOFF_TAIL_TOL:
            return rho, L, n
    raise SolverConvergenceError(
        f"Fock tail {tail:.3e} of the top three levels at n_max = {n} exceeds "
        f"{CUTOFF_TAIL_TOL:g} after {CUTOFF_MAX_ESCALATIONS} cutoff escalations"
    )


@dataclass(frozen=True)
class SweepRecord:
    """One steady-state point of a drive sweep."""

    N: int
    eps: float
    budget: EntropyBudget
    gap: float
    n_max_used: int
    ness_residual: float
    wall_time_s: float = field(compare=False)  # measured; equality ignores it


@dataclass
class SweepResult:
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (N, eps, message)


@one_blas_thread
def _sweep_point(p_base, N, eps, *, compute_gap) -> SweepRecord:
    """One point of ``sweep``, which documents the option, timed from its
    parameters to its budget."""
    start = time.perf_counter()
    p = replace(p_base, eps=eps, N=N)
    rho, L, n_used = steady_state_certified(p)
    # L holds the LU its steady state was solved with, and the gap reuses
    # it; drop L before the Husimi stage so the two never share memory.
    gap = liouvillian_gap(L) if compute_gap else float("nan")
    ness_residual = L.residual(rho)
    del L
    budget = entropy_budget(rho, p)
    return SweepRecord(
        N=N,
        eps=eps,
        budget=budget,
        gap=gap,
        n_max_used=n_used,
        ness_residual=ness_residual,
        wall_time_s=time.perf_counter() - start,
    )


def sweep(
    p_base: KerrParams,
    N_list,
    eps_grid,
    *,
    threads: int = 1,
    compute_gap: bool = True,
) -> SweepResult:
    """Steady-state budgets over a (N, eps) product grid, the points in
    ``threads`` worker processes (an integer >= 1, else ``ValueError``),
    capped at the number of points and at ``os.cpu_count()``.

    Points are independent jobs; failures are recorded and the sweep
    continues.  Records come back sorted by (N, eps) regardless of the
    executor, so they are equal for any thread count; each carries its
    measured ``wall_time_s``, which equality ignores.  Each point solves
    ``steady_state_certified``, and its record's ``n_max_used`` shows
    whether it escalated past ``recommended_cutoff``.  A failure is
    recorded as the exception's class and message, e.g.
    ``SolverConvergenceError: Fock tail ...``.
    """
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    point = functools.partial(_sweep_point, compute_gap=compute_gap)
    jobs = [(p_base, int(N), float(eps)) for N in N_list for eps in eps_grid]
    result = SweepResult()
    # a fork-started pool launches all its workers at the first submit, and
    # each point runs on one core, so more workers than cores gain nothing
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported here: a serial sweep never loads the process-pool stack
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            outcomes = [(job, pool.submit(point, *job).result) for job in jobs]
        else:
            outcomes = ((job, functools.partial(point, *job)) for job in jobs)
        for (_, N, eps), outcome in outcomes:
            try:
                result.records.append(outcome())
            except Exception as exc:  # per-point failure, sweep continues
                msg = f"{type(exc).__name__}: {exc}"
                log.warning("sweep point N=%s eps=%.6g failed: %s", N, eps, msg)
                result.failures.append((N, eps, msg))
    result.records.sort(key=lambda r: (r.N, r.eps))
    result.failures.sort(key=lambda f: (f[0], f[1]))
    return result


# ---------------------------------------------------------------------------
# Critical-drive estimate
# ---------------------------------------------------------------------------

def extrapolate_eps_c(records) -> float:
    """Thermodynamic transition drive from per-size gap minima.

    The drive minimizing the gap drifts with size like eps_c + b/N, as does
    the peak of the order-parameter susceptibility; fitting the refined
    per-N minima against 1/N and taking the intercept removes the leading
    finite-size offset.  Requires gap data for at least two sizes.
    """
    by_n = {}
    for r in records:
        if np.isfinite(r.gap):
            by_n.setdefault(r.N, []).append(r)
    if len(by_n) < 2:
        raise ValueError("need gap curves for at least two sizes")
    sizes = np.array(sorted(by_n), dtype=float)
    minima = []
    for n in sizes:
        rows = sorted(by_n[int(n)], key=lambda r: r.eps)
        eps = np.array([r.eps for r in rows])
        gaps = np.array([r.gap for r in rows])
        minima.append(_refine_extremum(eps, gaps))
    coeffs = np.polyfit(1.0 / sizes, minima, 1)
    return float(coeffs[1])


def _refine_extremum(x: np.ndarray, y: np.ndarray) -> float:
    """Minimum of y(x): the vertex of the parabola through the grid
    minimum and its two neighbours, clipped to them; the grid minimum
    itself at either end of the grid."""
    idx = int(np.argmin(y))
    if idx == 0 or idx == len(x) - 1:
        return float(x[idx])
    x0, x1, x2 = x[idx - 1 : idx + 2]
    y0, y1, y2 = y[idx - 1 : idx + 2]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2 ** 2 * (y0 - y1) + x1 ** 2 * (y2 - y0) + x0 ** 2 * (y1 - y2)) / denom
    if a == 0:
        return float(x1)
    vertex = -b / (2 * a)
    return float(np.clip(vertex, x0, x2))
