"""Kerr bistability: mean-field branches, the exact photon-number
distribution and drive sweeps.

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
in every pool worker alike).  The finite-size rescaling of the resulting
curves, ``collapse_transform``, lives in the numpy-only ``collapse``
module; the tests estimate the transition drive from the gap minima of
the records (``tests/oracles/critical.py``).

Every sweep point builds one generator (``steady_state_certified``), at
the larger of ``recommended_cutoff`` (constants ``CUTOFF_C1``,
``CUTOFF_C2``, ``CUTOFF_FLOOR``) and the fewest levels that leave less
than ``CUTOFF_TAIL_TOL`` of ``photon_number_distribution`` above them.
``sweep`` takes two keyword-only options, ``threads`` and
``compute_gap``.  The quadrature tolerances are ``phase_space``'s
constants ``MASS_TOL`` and ``Q_FLOOR_RATIO``, which no sweep option
overrides.

Memory: a sweep point drops its generator and the generator's LU before
its Husimi stage, then calls glibc's ``malloc_trim(0)`` (a no-op where the
C library has none, as on musl or macOS), in the serial path and in every
pool worker alike.  Once glibc has freed one mmapped factor it raises its
mmap threshold to that block's size, capped at 32 MiB, so later factors
below the cap come from the heap, which keeps freed memory resident.  With
the trim a sweep peaks at its largest point's peak, not at that plus the
fragments earlier points left (a process held 79-81 MB after one N = 30
point and 72 MB after two, against 66 MB after a trim).  Factors of more
than about 270 levels have blocks above the cap; they are mmapped and
were returned without the trim.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._blas import one_blas_thread
from .budget import KerrParams
# at module top, so scipy's import lands before any point's timer starts
from .liouvillian import (
    MAX_CUTOFF,
    build_kerr_liouvillian,
    liouvillian_gap,
    steady_state,
)
from .phase_space import EntropyBudget, entropy_budget

log = logging.getLogger(__name__)


def _bind_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none
    (musl, macOS)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return None
    trim.argtypes = (ctypes.c_size_t,)
    trim.restype = ctypes.c_int
    return trim


_malloc_trim = _bind_malloc_trim()

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
# Certified steady states and sweeps
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


def steady_state_certified(p: KerrParams):
    """Steady state from one build and one LU solve at
    n_max = max(``recommended_cutoff(p)``, ``_tail_cutoff(p)``).  Returns
    (rho, L, n_max).

    The tail raises the rule where the rule is short (at N = 1-2 and below
    the bistable window).  The rule stays a floor because the gap needs
    it: near eps_c the slow mode lives on the branch the state does not
    populate, and the LU state's error is amplified by about 1/gap, so a
    small tail alone proves little (at N=30, eps 0.93 every cutoff from 45
    to 100 leaves less than 1e-10 in the LU state's top three levels and
    gives <a^dag a> = 8.02, against 11.35 at the rule's 148).  A rule
    above ``MAX_CUTOFF`` fails the build before any allocation, so its
    tail is not summed.
    """
    n_max = recommended_cutoff(p)
    if n_max <= MAX_CUTOFF:
        n_max = max(n_max, _tail_cutoff(p))
    L = build_kerr_liouvillian(p, n_max)
    return steady_state(L), L, n_max


@dataclass(frozen=True)
class SweepRecord:
    """One steady-state point of a drive sweep; ``gap`` is None if not computed."""

    N: int
    eps: float
    budget: EntropyBudget
    gap: float | None
    n_max_used: int
    ness_residual: float
    wall_time_s: float = field(compare=False)  # measured; equality ignores it


@dataclass
class SweepResult:
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (N, eps, message)


@one_blas_thread
def _sweep_point(p_size, eps, *, compute_gap) -> SweepRecord:
    """One point of ``sweep``, which documents the option: drive ``eps``
    at the size and model of ``p_size``, timed from its parameters to its
    budget."""
    start = time.perf_counter()
    p = replace(p_size, eps=eps)
    rho, L, n_used = steady_state_certified(p)
    # L holds the LU its steady state was solved with, and the gap reuses
    # it; drop L before the Husimi stage so the two never share memory.
    gap = liouvillian_gap(L) if compute_gap else None
    ness_residual = L.residual(rho)
    del L
    # hand the heap the factors were carved from back to the OS, so the
    # next point does not peak on top of it (see the module docstring)
    if _malloc_trim is not None:
        _malloc_trim(0)
    budget = entropy_budget(rho, p)
    return SweepRecord(
        N=p.N,
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
    capped at the number of points and at ``os.cpu_count()``.  Each size
    must be one ``KerrParams`` accepts, or ``ValueError`` is raised before
    any point runs.

    Points are independent jobs; failures are recorded and the sweep
    continues.  Records come back sorted by (N, eps) regardless of the
    executor, so they are equal for any thread count; each carries its
    measured ``wall_time_s``, which equality ignores, and a ``gap`` of None
    unless ``compute_gap``.  Each point solves ``steady_state_certified``,
    and its record's ``n_max_used`` is the cutoff that function chose,
    ``recommended_cutoff`` or more where the state's exact Fock tail asks
    for more.  A failure is recorded as the exception's class and message,
    e.g. ``CutoffError: n_max = ...``.
    """
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    point = functools.partial(_sweep_point, compute_gap=compute_gap)
    sizes = [replace(p_base, N=N) for N in N_list]
    jobs = [(p, float(eps)) for p in sizes for eps in eps_grid]
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
        for (p, eps), outcome in outcomes:
            try:
                result.records.append(outcome())
            except Exception as exc:  # per-point failure, sweep continues
                msg = f"{type(exc).__name__}: {exc}"
                log.warning("sweep point N=%s eps=%.6g failed: %s", p.N, eps, msg)
                result.failures.append((p.N, eps, msg))
    result.records.sort(key=lambda r: (r.N, r.eps))
    result.failures.sort(key=lambda f: (f[0], f[1]))
    return result
