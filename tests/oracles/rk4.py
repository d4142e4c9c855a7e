"""Fixed-step RK4 propagation of a Kerr generator, the steady state's oracle.

It steps at 2 / ||L||_1, where the fixed points of the RK4 map are exactly
the null space of L, so long-time propagation converges to the same state
as the LU solve without a step-size bias.  Trace drift beyond
``TRACE_DRIFT_TOL`` raises ``StepSizeError``; ``evolve_to_stationarity``
stops on checkpoints ``STATIONARITY_BLOCK_TIME`` apart that agree to
``STATIONARITY_TOL`` and gives up after ``STATIONARITY_T_MAX``.
"""

import math

import numpy as np
from scipy.sparse.linalg import norm as spnorm

from oracles.states import trace_distance
from wehrlflux.errors import SolverConvergenceError, StateValidationError
from wehrlflux.fock_algebra import DensityMatrix, vectorize
from wehrlflux.liouvillian import Superoperator, _state

TRACE_DRIFT_TOL = 1e-9
# Propagation time between RK4 checkpoints, and the trace distance
# between consecutive checkpoints that ends the propagation.
STATIONARITY_BLOCK_TIME = 20.0
STATIONARITY_TOL = 1e-11
STATIONARITY_T_MAX = 1e5


class StepSizeError(ValueError):
    """Fixed-step propagation drifted in trace beyond tolerance."""


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
