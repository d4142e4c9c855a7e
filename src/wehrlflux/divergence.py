"""Power-law fit of the divergence of Pi_d at the Dicke critical coupling.

``fit_power_law`` fits log10(values) against log10|lambda_c - lambda| on
each side of lambda_c by ordinary least squares.  A side holds a few
dozen points at most, so the sums are ``math.fsum`` sums in centred form,

    slope = Sxy / Sxx,    stderr = sqrt(SSR / (n - 2) / Sxx),

which is the slope and the square root of ``cov[0, 0]`` that
``np.polyfit(x, y, 1, cov=True)`` returns.  The module imports only the
standard library, so ``wehrlflux fit-divergence`` starts without numpy.
"""

from __future__ import annotations

import math

from .errors import SolverConvergenceError

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

MIN_POINTS = 5


def _line_fit(x, y, side):
    """(slope, stderr) of the least-squares line through (x, y)."""
    n = len(x)
    if min(x) == max(x):
        raise SolverConvergenceError(
            f"all {n} usable points on side {side} share one coupling; "
            "the slope is undefined"
        )
    x_mean = math.fsum(x) / n
    y_mean = math.fsum(y) / n
    dx = [xi - x_mean for xi in x]
    dy = [yi - y_mean for yi in y]
    sxx = math.fsum(d * d for d in dx)
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    ssr = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    return slope, math.sqrt(ssr / (n - 2) / sxx)


def fit_power_law(lams, values, lambda_c: float, window=DIVERGENCE_WINDOW):
    """Per-side log-log slopes of ``values`` against |lambda_c - lambda|.

    ``window`` bounds the relative distance |lambda/lambda_c - 1| used in
    the fit, both ends included; points inside the lower bound sit in the
    gamma-rounded core and are excluded, and so are values <= 0.  Returns
    ((slope, stderr, npts) left, same right).  A ``lambda_c`` that is not
    a finite number > 0, ``lams`` and ``values`` of different lengths, or
    a coupling or value that is not finite raises ``ValueError``.  A side
    with fewer than ``MIN_POINTS`` usable points, or whose usable points
    all share one coupling, raises ``SolverConvergenceError``.
    """
    if not (math.isfinite(lambda_c) and lambda_c > 0):
        raise ValueError(f"lambda_c must be a finite number > 0, got {lambda_c!r}")
    lams = [float(v) for v in lams]
    values = [float(v) for v in values]
    if len(lams) != len(values):
        raise ValueError(
            f"got {len(lams)} couplings but {len(values)} values; "
            "they must pair up"
        )
    if not all(map(math.isfinite, lams + values)):
        raise ValueError("couplings and values must be finite")
    lo, hi = window
    out = []
    for side in (-1, 1):
        usable = [
            (lam, value)
            for lam, value in zip(lams, values)
            if (rel := lam / lambda_c - 1.0) * side > 0
            and lo <= abs(rel) <= hi
            and value > 0
        ]
        if len(usable) < MIN_POINTS:
            raise SolverConvergenceError(
                f"only {len(usable)} usable points on side {side}; "
                f"need >= {MIN_POINTS}"
            )
        x = [math.log10(abs(lambda_c - lam)) for lam, _ in usable]
        y = [math.log10(value) for _, value in usable]
        out.append((*_line_fit(x, y, side), len(usable)))
    return out[0], out[1]
