import math
import os

import numpy as np
import pytest

from conftest import kerr_params
from wehrlflux import kerr_model
from wehrlflux.liouvillian import KerrParams
from wehrlflux.kerr_model import (
    CollapsePoint,
    bistability_window,
    collapse_transform,
    drive_at,
    estimate_eps_c,
    mean_field_curve,
    recommended_cutoff,
    steady_state_certified,
    sweep,
    to_collapse_points,
)


TEST_PID = os.getpid()


def exit_in_worker(*args, **kwargs):
    """Stands in for a solver that kills the worker process it runs in."""
    if os.getpid() == TEST_PID:
        raise AssertionError("expected to run in a pool worker")
    os._exit(1)


def brute_force_turning_points(p, n_lo=1e-4, n_hi=6.0, samples=400001):
    """Oracle: locate the extrema of eps(n) by dense scan plus refinement."""
    n = np.linspace(n_lo, n_hi, samples)
    eps = np.sqrt(n * (p.kappa ** 2 + (p.delta + n * p.u) ** 2))
    d = np.diff(eps)
    sign_changes = np.nonzero(np.diff(np.sign(d)) != 0)[0] + 1
    return [float(n[i]) for i in sign_changes]


class TestBistabilityWindow:
    def test_reference_numbers(self):
        w = bistability_window(kerr_params(0.0, 1))
        assert w.n_plus == pytest.approx((4 + math.sqrt(3.25)) / 3, abs=1e-12)
        assert w.n_minus == pytest.approx((4 - math.sqrt(3.25)) / 3, abs=1e-12)
        assert w.eps_minus == pytest.approx(1.1662, abs=1e-4)
        assert w.eps_plus == pytest.approx(0.7014, abs=1e-4)

    def test_against_brute_force_scan(self):
        p = kerr_params(0.0, 1)
        w = bistability_window(p)
        turning = brute_force_turning_points(p)
        assert len(turning) == 2
        assert turning[0] == pytest.approx(w.n_minus, abs=1e-4)
        assert turning[1] == pytest.approx(w.n_plus, abs=1e-4)

    def test_degenerate_window(self):
        kappa = 0.5
        p = KerrParams(-math.sqrt(3) * kappa, 1.0, kappa, 0.0, 1)
        w = bistability_window(p)
        assert w.n_minus == pytest.approx(w.n_plus, abs=1e-12)

    def test_no_window(self):
        assert bistability_window(KerrParams(-1.0, 1.0, 1.0, 0.0, 1)) is None
        assert bistability_window(KerrParams(2.0, 1.0, 0.5, 0.0, 1)) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_upper_branch_has_lower_drive(self, seed):
        rng = np.random.default_rng(seed)
        kappa = rng.uniform(0.2, 1.0)
        delta = -rng.uniform(math.sqrt(3) * kappa * 1.05, 4.0 * kappa)
        p = KerrParams(delta, rng.uniform(0.5, 2.0), kappa, 0.0, 1)
        w = bistability_window(p)
        assert w.eps_minus > w.eps_plus
        turning = brute_force_turning_points(p, n_hi=max(4 * w.n_plus, 2.0))
        assert len(turning) == 2


class TestMeanFieldCurve:
    def test_three_roots_inside_window(self):
        p = kerr_params(0.0, 1)
        w = bistability_window(p)
        roots = mean_field_curve(p, 0.5 * (w.eps_lo + w.eps_hi))
        assert len(roots) == 3
        assert roots[0] < w.n_minus < roots[1] < w.n_plus < roots[2]

    def test_zero_drive(self):
        assert mean_field_curve(kerr_params(0.0, 1), 0.0) == [0.0]

    def test_far_above_window_single_root(self):
        p = kerr_params(0.0, 1)
        roots = mean_field_curve(p, 3.0)
        assert len(roots) == 1
        n = roots[0]
        residual = abs(n * (p.kappa ** 2 + (p.delta + n * p.u) ** 2) - 9.0)
        assert residual < 1e-10

    def test_roots_lie_on_drive_curve(self):
        p = kerr_params(0.0, 1)
        for eps in (0.3, 0.8, 1.0, 2.5):
            for n in mean_field_curve(p, eps):
                assert drive_at(p, n) == pytest.approx(eps, abs=1e-9)


class TestCutoffRule:
    def test_scales_with_system_size(self):
        small = recommended_cutoff(kerr_params(0.9, 5))
        large = recommended_cutoff(kerr_params(0.9, 20))
        assert large > small

    def test_certification_converges(self):
        p = KerrParams(0.0, 1e-12, 0.5, 1.0, 1)
        rho, L, n_used, drift = steady_state_certified(p)
        assert drift < 1e-8
        assert n_used >= recommended_cutoff(p)


class TestSweep:
    def test_single_point_matches_budget(self, ness_cache):
        from wehrlflux.phase_space import auto_grid, entropy_budget

        p = kerr_params(0.9, 5)
        result = sweep(p, [5], [0.9], certify=False, compute_gap=False)
        assert len(result.records) == 1 and not result.failures
        rec = result.records[0]
        rho, _ = ness_cache(p)
        b = entropy_budget(rho, p, auto_grid(rho))
        assert rec.budget.Pi_d == pytest.approx(b.Pi_d, rel=1e-9)
        assert rec.budget.S == pytest.approx(b.S, rel=1e-12)

    def test_failures_recorded_not_raised(self):
        # an absurd drive far outside the guard range still yields a record
        # or a recorded failure, never an exception
        p = kerr_params(0.0, 2)
        with pytest.warns(UserWarning):
            result = sweep(p, [2], [30.0], certify=False, compute_gap=False)
        assert len(result.records) + len(result.failures) == 1

    def test_explicit_zero_tolerance_is_honoured(self):
        # mass_tol = 0 reaches the quadrature check instead of falling back
        # to the default; no finite grid captures the mass exactly
        p = kerr_params(0.9, 2)
        result = sweep(p, [2], [0.9], certify=False, compute_gap=False, mass_tol=0.0)
        assert not result.records
        ((N, eps, msg),) = result.failures
        assert "quadrature mass" in msg and "beyond 0.0" in msg

    def test_crashed_worker_recorded_as_failure(self, monkeypatch):
        # pool workers are forked (the default on Linux) after the patch, so
        # they run the stand-in and die
        monkeypatch.setattr(kerr_model, "steady_state", exit_in_worker)
        p = kerr_params(0.9, 2)
        result = sweep(p, [2], [0.9, 0.95], compute_gap=False, threads=2)
        assert not result.records
        assert [(N, eps) for N, eps, _ in result.failures] == [(2, 0.9), (2, 0.95)]
        assert all("terminated abruptly" in msg for *_, msg in result.failures)

    def test_unknown_option_is_a_type_error(self):
        with pytest.raises(TypeError, match="certfy"):
            sweep(kerr_params(0.9, 2), [2], [0.9], certfy=False)


class TestCollapse:
    @staticmethod
    def synthetic_points(eps_c=1.0, sizes=(10, 20), spread=0.0):
        # Pi_u = f(x), Pi_d = N g(x): exact collapse by construction
        points = []
        for N in sizes:
            for x in np.linspace(-3, 3, 25):
                eps = eps_c * (1 + x / N)
                piu = 1.0 / (1.0 + np.exp(-x)) + spread * (N == sizes[-1])
                pid = N * np.exp(-x ** 2)
                points.append(CollapsePoint(N, float(eps), float(piu), float(pid)))
        return points

    def test_exact_collapse_has_zero_spread(self):
        res = collapse_transform(self.synthetic_points(), 1.0)
        m = res.metrics[(10, 20)]
        assert m["Pi_u"] == pytest.approx(0.0, abs=1e-12)
        assert m["Pi_d_over_N"] == pytest.approx(0.0, abs=1e-12)

    def test_wrong_eps_c_degrades_metric(self):
        points = self.synthetic_points()
        good = collapse_transform(points, 1.0).metrics[(10, 20)]
        bad = collapse_transform(points, 1.05).metrics[(10, 20)]
        assert bad["Pi_u"] > 10 * max(good["Pi_u"], 1e-9)
        assert bad["Pi_d_over_N"] > 10 * max(good["Pi_d_over_N"], 1e-9)

    def test_non_overlapping_ranges_give_none(self):
        points = [
            CollapsePoint(10, 1.0 + x, 1.0, 1.0) for x in (0.0, 0.01)
        ] + [
            CollapsePoint(20, 1.0 + x, 1.0, 1.0) for x in (0.5, 0.51)
        ]
        res = collapse_transform(points, 1.0)
        assert res.metrics[(10, 20)] is None

    def test_estimate_eps_c_from_parabola(self):
        # records with a parabolic gap curve: refinement hits the vertex
        class Row:
            def __init__(self, N, eps, gap, n_mean):
                self.N, self.eps, self.gap, self.n_mean = N, eps, gap, n_mean

        eps = np.linspace(0.9, 1.0, 11)
        rows = [Row(10, e, (e - 0.943) ** 2 + 1e-5, e) for e in eps]
        assert estimate_eps_c(rows) == pytest.approx(0.943, abs=1e-12)
