"""The Kerr gap's Kramers rate from the exact steady state's large-N weight.

Grouping the exact Kerr state's photon-number distribution by s = m + q
leaves a binomial mixture over one weight,

    w(s) = (2 |lam|^2)^s / (s! |Gamma(c + s)|^2).

With s = N sigma (sigma = 2n, n the intensive photon number), Stirling
gives ln w = N phi(sigma) + O(ln N) with

    phi(sigma) = sigma ln(8 eps^2 / u^2) - sigma ln sigma + sigma
                 - 2 Re[zeta ln zeta - zeta],   zeta = sigma + 2 (delta - i kappa) / u.

phi'(sigma) = 0 reads 8 eps^2 / u^2 = sigma |zeta|^2, which is the
mean-field equation n ((delta + u n)^2 + kappa^2) = eps^2, so the extrema
of phi are ``mean_field_curve``'s roots.  At eps_c_inf the two outer
maxima are equally high, and the gap closes like exp(-N dphi), where
dphi = phi(sigma_-) - phi(sigma_0) is the barrier between the lower
branch and the unstable root.  Standard library and numpy only.
"""

import cmath
import math

from wehrlflux.budget import KerrParams
from wehrlflux.kerr_model import bistability_window, mean_field_curve


def phi(sigma: float, p: KerrParams) -> float:
    """Large-N exponent of the weight w(N sigma), per unit N."""
    zeta = sigma + 2.0 * complex(p.delta, -p.kappa) / p.u
    return (
        sigma * math.log(8.0 * p.eps ** 2 / p.u ** 2)
        - sigma * math.log(sigma)
        + sigma
        - 2.0 * (zeta * cmath.log(zeta) - zeta).real
    )


def extrema(p: KerrParams) -> list[float]:
    """sigma = 2n at the mean-field roots, ascending."""
    return [2.0 * n for n in mean_field_curve(p, p.eps)]


def _at(p: KerrParams, eps: float) -> KerrParams:
    return KerrParams(p.delta, p.u, p.kappa, eps, p.N)


def eps_c_inf(p: KerrParams) -> float:
    """Drive in the bistable window at which phi has equal outer maxima."""
    win = bistability_window(p)
    lo, hi = win.eps_plus, win.eps_minus

    def upper_minus_lower(eps):
        q = _at(p, eps)
        s_lo, _, s_hi = extrema(q)
        return phi(s_hi, q) - phi(s_lo, q)

    # the lower branch wins at the window's lower end, the upper one at
    # its upper end; both ends are turning points, so stay inside them
    lo, hi = lo * (1 + 1e-9), hi * (1 - 1e-9)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if upper_minus_lower(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def barrier(p: KerrParams) -> float:
    """dphi = phi(sigma_-) - phi(sigma_0) at eps_c_inf, per unit N."""
    q = _at(p, eps_c_inf(p))
    s_lo, s_mid, _ = extrema(q)
    return phi(s_lo, q) - phi(s_mid, q)
