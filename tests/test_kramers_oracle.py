"""The Kramers-rate oracle of ``oracles.kramers`` against its own definition."""

import pytest

from conftest import kerr_params
from oracles.kramers import barrier, eps_c_inf, extrema, phi
from wehrlflux.kerr_model import bistability_window

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
