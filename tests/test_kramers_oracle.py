"""The Kramers-rate oracle of ``oracles.kramers`` against its own definition,
and the exact weight of ``kerr_model`` against the oracle's eps_c_inf."""

import math

import pytest

from conftest import kerr_params
from oracles.kramers import barrier, eps_c_inf, extrema, phi
from wehrlflux.kerr_model import _log_weights, bistability_window

BASE = kerr_params(0.0, 1)


def test_extrema_are_stationary_points_of_phi():
    p = kerr_params(0.94, 1)
    h = 1e-6
    for s in extrema(p):
        slope = (phi(s + h, p) - phi(s - h, p)) / (2 * h)
        assert abs(slope) < 1e-8


def test_outer_maxima_equal_at_eps_c_inf():
    eps = eps_c_inf(BASE)
    win = bistability_window(BASE)
    assert win.eps_plus < eps < win.eps_minus
    p = kerr_params(eps, 1)
    s_lo, s_mid, s_hi = extrema(p)
    assert phi(s_lo, p) == pytest.approx(phi(s_hi, p), abs=1e-12)
    assert phi(s_mid, p) < phi(s_lo, p)


def test_reference_values():
    # the figures of ROADMAP item 16, at the reference Kerr parameters
    eps = eps_c_inf(BASE)
    assert eps == pytest.approx(0.9329375890, abs=1e-10)
    assert extrema(kerr_params(eps, 1)) == pytest.approx(
        [0.535500, 2.769478, 4.695022], abs=1e-6
    )
    assert barrier(BASE) == pytest.approx(0.6737394459, abs=1e-10)


def upper_weight(p):
    """Mass of the exact weight w(s) above its dip, at s = N sigma_0 of the
    unstable root."""
    log_w = _log_weights(p)
    dip = round(p.N * extrema(p)[1])
    top = max(log_w)
    w = [math.exp(x - top) for x in log_w]
    return math.fsum(w[dip:]) / math.fsum(w)


@pytest.mark.parametrize("N", [100, 300, 1000])
def test_equal_weight_drive_shifts_by_b_over_n(N):
    # the exact weight's two branches carry equal mass at eps_c_inf + b/N,
    # b = 0.2352 (ROADMAP item 14); measured 1.4e-7 / 1.1e-7 / 5e-8 off.
    # From N = 120 on the dip between the branches is more than 80 deep,
    # so a weight sum that stopped there would lose the upper branch.
    eps_c = eps_c_inf(BASE)
    lo, hi = eps_c, eps_c + 0.005
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if upper_weight(kerr_params(mid, N)) < 0.5:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(eps_c + 0.2352 / N, abs=1e-6)
