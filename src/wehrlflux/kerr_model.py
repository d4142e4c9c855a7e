"""Kerr drive sweeps: a certified steady state, gap and budget per point.

``sweep`` computes one steady-state entropy budget per (N, eps) point,
with the Fock cutoff auto-selected per point, the Husimi integrals on
``phase_space.polar_grid`` and BLAS on one thread (in the serial path and
in every pool worker alike).  The finite-size rescaling of the resulting
curves, ``collapse_transform``, lives in the numpy-only ``collapse``
module; the tests estimate the transition drive from the gap minima of
the records (``tests/oracles/critical.py``).

Every sweep point builds one generator (``steady_state_certified``), at
the larger of ``recommended_cutoff`` and the fewest levels that leave less
than ``CUTOFF_TAIL_TOL`` of ``photon_number_distribution`` above them
(module ``kerr_state``, numpy only).  ``liouvillian``, and scipy with it,
is imported at module top, so that import is paid before any point's
timer starts.  ``sweep`` takes two keyword-only options, ``threads`` and
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
import os
import time
from dataclasses import dataclass, field, replace

from ._blas import one_blas_thread
from .budget import KerrParams
from .kerr_state import _tail_cutoff, recommended_cutoff
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


# ---------------------------------------------------------------------------
# Certified steady states and sweeps
# ---------------------------------------------------------------------------

def steady_state_certified(p: KerrParams):
    """Steady state from one build and one LU solve at
    n_max = max(``recommended_cutoff(p)``, ``_tail_cutoff(p)``).  Returns
    (rho, L); the cutoff is ``L.n_max``.

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
    return steady_state(L), L


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
    rho, L = steady_state_certified(p)
    # L holds the LU its steady state was solved with, and the gap reuses
    # it; drop L before the Husimi stage so the two never share memory.
    gap = liouvillian_gap(L) if compute_gap else None
    ness_residual = L.residual(rho)
    n_used = L.n_max
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
