"""Critical-point estimates from sampled curves: refined extrema, the
extrapolated Kerr transition drive, the Dicke kink in Pi_u, and the
collapse points of Kerr sweep records."""

from dataclasses import dataclass

import numpy as np

from wehrlflux.collapse import CollapsePoint
from wehrlflux.dicke_gaussian import DickeParams, critical_coupling, dicke_point


def parabola_vertex(x, y, i: int) -> tuple[float, float]:
    """(x, y) at the vertex of the parabola through samples i - 1, i and
    i + 1, x clipped to x[i - 1]..x[i + 1]; sample i itself at either end
    of the samples or where the three are collinear.

    With i the grid minimum or maximum the vertex lies between the
    midpoints of the two intervals, so the clip only guards roundoff.
    """
    if i == 0 or i == len(x) - 1:
        return float(x[i]), float(y[i])
    x0, x1, x2 = x[i - 1 : i + 2]
    y0, y1, y2 = y[i - 1 : i + 2]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2 ** 2 * (y0 - y1) + x1 ** 2 * (y2 - y0) + x0 ** 2 * (y1 - y2)) / denom
    if a == 0:
        return float(x1), float(y1)
    vertex = float(np.clip(-b / (2 * a), x0, x2))
    # p(vertex) - p(x1) = (vertex - x1) (a (vertex + x1) + b), free of the
    # cancellation in a x^2 + b x + c
    return vertex, float(y1 + (vertex - x1) * (a * (vertex + x1) + b))


def extrapolate_eps_c(records) -> float:
    """Thermodynamic transition drive from per-size gap minima.

    The drive minimizing the gap drifts with size like eps_c + b/N, as does
    the peak of the order-parameter susceptibility; fitting the refined
    per-N minima against 1/N and taking the intercept removes the leading
    finite-size offset.  Requires gap data for at least two sizes.
    """
    by_n = {}
    for r in records:
        if r.gap is not None:
            by_n.setdefault(r.N, []).append(r)
    if len(by_n) < 2:
        raise ValueError("need gap curves for at least two sizes")
    sizes = np.array(sorted(by_n), dtype=float)
    minima = []
    for n in sizes:
        rows = sorted(by_n[int(n)], key=lambda r: r.eps)
        eps = np.array([r.eps for r in rows])
        gaps = np.array([r.gap for r in rows])
        minima.append(parabola_vertex(eps, gaps, int(np.argmin(gaps)))[0])
    coeffs = np.polyfit(1.0 / sizes, minima, 1)
    return float(coeffs[1])


def to_collapse_points(records) -> list[CollapsePoint]:
    return [
        CollapsePoint(r.N, r.eps, r.budget.Pi_u, r.budget.Pi_d) for r in records
    ]


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
