import concurrent.futures
import dataclasses
import inspect
import math
import os
import platform
import re
import sys
import tracemalloc
import weakref
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from conftest import kerr_params
from wehrlflux import kerr_model, phase_space
from wehrlflux.collapse import CollapsePoint, collapse_transform
from wehrlflux.errors import CutoffError
from wehrlflux.fock_algebra import mean_photon_number
from wehrlflux.liouvillian import KerrParams, build_kerr_liouvillian, steady_state
from wehrlflux.kerr_model import (
    bistability_window,
    drive_at,
    extrapolate_eps_c,
    mean_field_curve,
    photon_number_distribution,
    recommended_cutoff,
    steady_state_certified,
    sweep,
)


TEST_PID = os.getpid()
README = Path(__file__).resolve().parent.parent / "README.md"


def exit_in_worker(*args, **kwargs):
    """Stands in for a solver that kills the worker process it runs in."""
    if os.getpid() == TEST_PID:
        raise AssertionError("expected to run in a pool worker")
    os._exit(1)


def tail_levels(p):
    """Fewest Fock levels whose exact excluded mass, summed with fsum from
    ``photon_number_distribution``, is below ``CUTOFF_TAIL_TOL``."""
    dist = photon_number_distribution(p)
    return next(
        n for n in range(len(dist) + 1)
        if math.fsum(dist[n:]) < kerr_model.CUTOFF_TAIL_TOL
    )


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

    @pytest.mark.parametrize("N, eps", [(20, 0.5255), (10, 0.6)])
    def test_sweep_point_matches_wider_cutoff(self, N, eps):
        # below the bistable window the recommended cutoff (8) leaves
        # 0.4-1.5 % of the population in the top three Fock levels, so
        # the state's exact tail must size the point to match a solve
        # with 30 more levels
        p = kerr_params(eps, N)
        (rec,) = sweep(p, [N], [eps], compute_gap=False).records
        assert rec.n_max_used > recommended_cutoff(p)
        L_ref = build_kerr_liouvillian(p, rec.n_max_used + 30, enforce_cutoff=False)
        n_ref = mean_photon_number(steady_state(L_ref))
        # the flux 2 kappa <a^dag a> splits into Phi_ext + Phi_q
        n_mean = (rec.budget.Phi_ext + rec.budget.Phi_q) / (2.0 * p.kappa)
        assert n_mean == pytest.approx(n_ref, rel=1e-9)

    def test_cutoff_below_rule_fails_the_point(self):
        # at N=30, eps 0.94 a cutoff of 116 leaves 4.2e-11 in the LU state's
        # top three levels but gives <a^dag a> = 31.97 against 36.25 at the
        # rule's 148
        p = kerr_params(0.94, 30)
        assert recommended_cutoff(p) == 148
        with pytest.raises(CutoffError, match="n_max = 116 below recommended cutoff 148 "):
            build_kerr_liouvillian(p, 116)

    def test_cutoff_bounded_before_allocation(self):
        # the rule asks for 349785 levels, a generator of dimension 1.2e11
        p = kerr_params(0.9, 100000)
        assert recommended_cutoff(p) == 349785
        tracemalloc.start()
        try:
            result = sweep(p, [100000], [0.9], compute_gap=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ((N, eps, msg),) = result.failures
        assert (N, eps) == (100000, 0.9) and not result.records
        assert msg.startswith("CutoffError: n_max = 349785 above MAX_CUTOFF = ")
        assert peak < 10 ** 6  # its ladder operator alone takes 17 MB

    @pytest.mark.parametrize("N, eps, levels", [(30, 0.5, 22), (10, 0.3, 12), (100, 0.5, 36)])
    def test_exact_tail_raises_a_short_rule(self, N, eps, levels):
        # below the window the rule (10 / 8 / 22 levels) leaves an exact
        # tail of 4.5e-5 / 3.8e-10 / 1.4e-6; one solve at the tail cutoff
        p = kerr_params(eps, N)
        assert recommended_cutoff(p) < levels == tail_levels(p)
        rho, L, n_max = steady_state_certified(p)
        assert n_max == levels == L.n_max == len(rho.entries)

    def test_rule_is_kept_above_a_shorter_tail(self):
        # near eps_c the gap needs the rule's levels, though 122 would
        # hold the state
        p = kerr_params(0.94092, 30)
        assert tail_levels(p) == 122
        assert recommended_cutoff(p) == 148
        _, _, n_max = steady_state_certified(p)
        assert n_max == 148

    def test_zero_drive_is_the_vacuum_at_the_floor(self):
        p = kerr_params(0.0, 3)
        assert photon_number_distribution(p).tolist() == [1.0]
        rho, _, n_max = steady_state_certified(p)
        assert n_max == kerr_model.CUTOFF_FLOOR
        vacuum = np.zeros((n_max, n_max))
        vacuum[0, 0] = 1.0
        assert np.abs(rho.entries - vacuum).max() < 1e-14

    def test_sweep_cutoff_depends_on_the_point_alone(self):
        # below (0.5, 0.6), inside (0.8, 0.95) and above (1.3) the window
        eps_grid = [0.5, 0.6, 0.8, 0.95, 1.3]
        result = sweep(kerr_params(0.0, 1), [2, 10], eps_grid, compute_gap=False)
        assert len(result.records) == 10 and not result.failures
        for rec in result.records:
            p = kerr_params(rec.eps, rec.N)
            assert rec.n_max_used == max(recommended_cutoff(p), tail_levels(p))


class TestPhotonNumberDistribution:
    @pytest.mark.parametrize(
        "N, eps, other",
        [(2, 0.9, {}), (10, 0.955, {}), (10, 1.65, dict(delta=-4.5, u=1.25, kappa=1.0))],
    )
    def test_matches_the_lu_state(self, N, eps, other):
        # two independent routes to one state; 20 levels past the rule the
        # LU state is converged in its cutoff (not so at N >= 20 near eps_c,
        # where the LU itself is 6e-10 off).  The third point's weight sum
        # runs on past its first 70 terms.
        p = kerr_params(eps, N, **other)
        n = recommended_cutoff(p) + 20
        rho = steady_state(build_kerr_liouvillian(p, n, enforce_cutoff=False))
        dist = photon_number_distribution(p)
        size = max(n, len(dist))
        diag = np.zeros(size)
        diag[:n] = np.diagonal(rho.entries).real
        exact = np.zeros(size)
        exact[: len(dist)] = dist
        assert np.abs(diag - exact).max() < 1e-12
        n_mean = float(np.arange(len(dist)) @ dist)
        assert n_mean == pytest.approx(mean_photon_number(rho), rel=1e-11)

    @pytest.mark.parametrize("N, eps", [(1, 0.3), (10, 0.955), (30, 0.94092), (2, 30.0)])
    def test_is_normalized_and_ends_in_a_negligible_tail(self, N, eps):
        dist = photon_number_distribution(kerr_params(eps, N))
        assert np.all(dist >= 0)
        assert dist.sum() == pytest.approx(1.0, abs=1e-14)
        assert dist[-10:].sum() < 1e-30


class TestSweep:
    def test_single_point_matches_budget(self, ness_cache):
        from wehrlflux.phase_space import entropy_budget

        p = kerr_params(0.9, 5)
        result = sweep(p, [5], [0.9], compute_gap=False)
        assert len(result.records) == 1 and not result.failures
        rec = result.records[0]
        rho, _ = ness_cache(p)
        b = entropy_budget(rho, p)
        assert rec.budget.Pi_d == pytest.approx(b.Pi_d, rel=1e-9)
        assert rec.budget.S == pytest.approx(b.S, rel=1e-12)

    def test_failures_recorded_not_raised(self):
        # an absurd drive far outside the guard range still yields a record
        # or a recorded failure, never an exception
        p = kerr_params(0.0, 2)
        result = sweep(p, [2], [30.0], compute_gap=False)
        assert len(result.records) + len(result.failures) == 1

    def test_explicit_zero_tolerance_is_honoured(self, monkeypatch):
        # MASS_TOL is read when the check runs, so 0 reaches the quadrature
        # check; no finite grid captures the mass exactly
        monkeypatch.setattr(phase_space, "MASS_TOL", 0.0)
        p = kerr_params(0.9, 2)
        result = sweep(p, [2], [0.9], compute_gap=False)
        assert not result.records
        ((N, eps, msg),) = result.failures
        assert "quadrature mass" in msg and "beyond 0.0" in msg

    def test_crashed_worker_recorded_as_failure(self, monkeypatch):
        # pool workers are forked (the default on Linux) after the patch, so
        # they run the stand-in and die; two cores let the sweep start them
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(kerr_model, "steady_state", exit_in_worker)
        p = kerr_params(0.9, 2)
        result = sweep(p, [2], [0.9, 0.95], compute_gap=False, threads=2)
        assert not result.records
        assert [(N, eps) for N, eps, _ in result.failures] == [(2, 0.9), (2, 0.95)]
        assert all("terminated abruptly" in msg for *_, msg in result.failures)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of every pool the sweep opens, the pool replaced
        by one that runs each point inline, so no process is started."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return sizes

    def test_pool_no_larger_than_the_sweep(self, monkeypatch, pool_sizes):
        # a fork-started pool forks all of its max_workers at the first
        # submit: 64 threads on 2 points ask for 2 workers, on 1 point for
        # no pool at all
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        p = kerr_params(0.9, 2)
        assert len(sweep(p, [2], [0.9, 0.95], compute_gap=False, threads=64).records) == 2
        assert len(sweep(p, [2], [0.9], compute_gap=False, threads=64).records) == 1
        assert pool_sizes == [2]

    def test_pool_no_larger_than_the_machine(self, monkeypatch, pool_sizes):
        # 10^4 threads on 4 points ask for one worker per core, and on a
        # single core (or one os.cpu_count cannot read) for no pool at all
        p = kerr_params(0.9, 2)
        eps = [0.9, 0.92, 0.94, 0.96]
        for cores, expected in ((3, [3]), (1, [3]), (None, [3])):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            result = sweep(p, [2], eps, compute_gap=False, threads=10 ** 4)
            assert len(result.records) == 4 and not result.failures
            assert pool_sizes == expected

    def test_unknown_option_is_a_type_error(self):
        with pytest.raises(TypeError, match="certfy"):
            sweep(kerr_params(0.9, 2), [2], [0.9], certfy=False)
        # the first cutoff is always the rule's; a wider one is a library
        # call, build_kerr_liouvillian(p, n, enforce_cutoff=False)
        with pytest.raises(TypeError, match="n_max"):
            sweep(kerr_params(0.9, 2), [2], [0.9], n_max=60)

    @pytest.mark.parametrize("threads", [0, -3, 1.5, True, "2"])
    def test_threads_must_be_a_positive_integer(self, threads):
        with pytest.raises(ValueError, match="threads must be an integer >= 1"):
            sweep(kerr_params(0.9, 2), [2], [0.9], threads=threads)

    def test_record_carries_its_wall_time_outside_equality(self):
        p = kerr_params(0.9, 2)
        (rec,) = sweep(p, [2], [0.9], compute_gap=False).records
        assert rec.wall_time_s > 0
        assert dataclasses.replace(rec, wall_time_s=0.0) == rec

    def test_readme_names_the_sweep_options(self):
        signature = r"`sweep\(p, N_list, eps_grid, \*, ([^)]*)\)`"
        (named,) = re.findall(signature, README.read_text())
        params = inspect.signature(sweep).parameters.values()
        assert named.split(", ") == [q.name for q in params if q.kind is q.KEYWORD_ONLY]


class TestMallocTrim:
    EPS = [0.9, 0.93, 0.96]

    @pytest.fixture
    def events(self, monkeypatch):
        """What each point of a sweep does, in order: "state" when its
        generator is built, ("trim", pad, generator freed) when the trim hook
        is called, and "budget" when its Husimi stage starts."""
        events, generators = [], []
        certified = kerr_model.steady_state_certified
        budget = kerr_model.entropy_budget

        def state(p):
            rho, L, n_used = certified(p)
            generators.append(weakref.ref(L))
            events.append("state")
            return rho, L, n_used

        def trim(pad):
            events.append(("trim", pad, generators[-1]() is None))
            return 1

        def husimi(*args):
            events.append("budget")
            return budget(*args)

        monkeypatch.setattr(kerr_model, "steady_state_certified", state)
        monkeypatch.setattr(kerr_model, "_malloc_trim", trim)
        monkeypatch.setattr(kerr_model, "entropy_budget", husimi)
        return events

    def test_once_per_point_after_the_generator_is_freed(self, events):
        # with the gap, each generator holds the LU both solves used
        result = sweep(kerr_params(0.9, 5), [5], self.EPS)
        assert len(result.records) == 3 and not result.failures
        assert events == ["state", ("trim", 0, True), "budget"] * 3

    def test_records_do_not_depend_on_the_hook(self, monkeypatch):
        p = kerr_params(0.9, 5)
        trimmed = sweep(p, [5], self.EPS).records
        monkeypatch.setattr(kerr_model, "_malloc_trim", None)
        assert sweep(p, [5], self.EPS).records == trimmed

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="malloc_trim is a glibc function",
    )
    def test_binding_resolves_on_glibc(self):
        assert kerr_model._malloc_trim is not None
        assert kerr_model._malloc_trim(0) in (0, 1)


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

    @pytest.mark.parametrize("eps_c", [0.0, -1.0, math.nan, math.inf])
    def test_bad_eps_c_rejected(self, eps_c):
        with pytest.raises(ValueError, match="eps_c must be a finite number > 0"):
            collapse_transform(self.synthetic_points(), eps_c)

    @pytest.mark.parametrize(
        "point",
        [
            CollapsePoint(0, 1.0, 0.5, 1.0),
            CollapsePoint(-1, 1.0, 0.5, 1.0),
            CollapsePoint(10, math.nan, 0.5, 1.0),
            CollapsePoint(10, 1.0, math.nan, 1.0),
            CollapsePoint(10, 1.0, 0.5, math.inf),
        ],
        ids=["N-zero", "N-negative", "eps-nan", "Pi_u-nan", "Pi_d-inf"],
    )
    def test_bad_point_rejected(self, point):
        with pytest.raises(ValueError, match="needs N >= 1 and finite values"):
            collapse_transform(self.synthetic_points() + [point], 1.0)

    def test_extrapolate_eps_c_from_parabolas(self):
        # parabolic gap curves with vertices at 0.943 + b/N: refinement hits
        # each vertex, and the 1/N fit's intercept is 0.943
        class Row:
            def __init__(self, N, eps, gap):
                self.N, self.eps, self.gap = N, eps, gap

        eps = np.linspace(0.9, 1.1, 41)
        rows = [
            Row(N, e, (e - (0.943 + 0.2 / N)) ** 2 + 1e-5)
            for N in (10, 20)
            for e in eps
        ]
        assert extrapolate_eps_c(rows) == pytest.approx(0.943, abs=1e-12)
