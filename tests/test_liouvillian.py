import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import LinearOperator, eigs, splu
from scipy.sparse.linalg import norm as spnorm

from conftest import kerr_params, random_density_matrix
from oracles.real_generator import real_generator
from oracles.rk4 import StepSizeError, evolve, evolve_to_stationarity, max_stable_dt
from oracles.states import trace_distance, vacuum
from wehrlflux import kerr_model, liouvillian
from wehrlflux.budget import KerrParams
from wehrlflux.errors import CutoffError, SolverConvergenceError
from wehrlflux.fock_algebra import (
    mean_amplitude,
    mean_photon_number,
    unvectorize,
    vectorize,
)
from wehrlflux.kerr_state import bistability_window, recommended_cutoff
from wehrlflux.liouvillian import (
    Superoperator,
    build_kerr_liouvillian,
    liouvillian_gap,
    steady_state,
)


def undriven_params(kappa=0.5, delta=0.0):
    # eps = 0 with a tiny nonlinearity: effectively the damped linear cavity
    return KerrParams(delta, 1e-12, kappa, 0.0, 1)


def reference_gap(L):
    """Gap from scipy's ARPACK: the 30 eigenvalues of largest modulus of
    f -> B^{-1}(f with f_0 := 0) on the generator's own LU, converged to
    machine precision (tol 0) from a seeded random start."""
    lu = L.bordered_lu

    def matvec(f):
        f = np.array(f, dtype=complex).ravel()
        f[0] = 0.0
        return lu.solve(f)

    op = LinearOperator((L.dim, L.dim), matvec=matvec, dtype=complex)
    v0 = np.random.default_rng(1).standard_normal(L.dim).astype(complex)
    nu = eigs(op, k=30, which="LM", v0=v0, tol=0.0, return_eigenvectors=False)
    return -float(np.max((1.0 / nu).real))


class TestParams:
    @pytest.mark.parametrize("bad", [True, False, 10.5, math.nan, math.inf, 0, -3, "10"])
    def test_non_integral_N_rejected(self, bad):
        # int(True) == True and int(10.0) == 10.0, so an equality check
        # alone lets a boolean or a float through
        with pytest.raises(ValueError, match="positive integer"):
            KerrParams(-2.0, 1.0, 0.5, 0.9, bad)

    @pytest.mark.parametrize("N", [10, 10.0, np.int64(10)])
    def test_N_stored_as_int(self, N):
        p = KerrParams(-2.0, 1.0, 0.5, 0.9, N)
        assert type(p.N) is int and p.N == 10


class TestBuild:
    def test_trace_preservation(self):
        L = build_kerr_liouvillian(kerr_params(0.9, 3), 20, enforce_cutoff=False)
        trace_functional = vectorize(np.eye(20, dtype=complex))
        assert np.max(np.abs(L.matrix.T @ trace_functional)) < 1e-12

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(3)
        L = build_kerr_liouvillian(kerr_params(0.9, 3), 12, enforce_cutoff=False)
        rho = random_density_matrix(12, rng)
        out = unvectorize(L.matrix @ vectorize(rho.entries), 12)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_spectrum_left_half_plane(self):
        L = build_kerr_liouvillian(kerr_params(0.7, 2), 10, enforce_cutoff=False)
        vals = sla.eigvals(L.matrix.toarray())
        assert vals.real.max() < 1e-10

    def test_drive_acts_on_vacuum(self):
        L = build_kerr_liouvillian(kerr_params(0.5, 2), 10, enforce_cutoff=False)
        out = L.matrix @ vectorize(vacuum(10).entries)
        assert np.max(np.abs(out)) > 1e-3

    def test_cutoff_enforcement(self):
        p = kerr_params(0.9, 10)
        with pytest.raises(CutoffError):
            build_kerr_liouvillian(p, 10)

    @pytest.mark.parametrize("enforce", [True, False])
    def test_cutoff_above_bound_rejected(self, enforce):
        p = kerr_params(0.9, 10)
        n_max = liouvillian.MAX_CUTOFF + 1
        with pytest.raises(CutoffError, match=f"n_max = {n_max} above MAX_CUTOFF = "):
            build_kerr_liouvillian(p, n_max, enforce_cutoff=enforce)

    def test_vectorization_convention(self):
        # the band build equals -i(I x H - H^T x I) + 2k(conj(a) x a - ...)
        # from dense operator products, entry by entry and in its stored
        # pattern: eps = 0, delta = 0 and > 0, N > 1, the smallest cutoff
        # and a dozen levels
        cases = [
            (kerr_params(0.0, 2), 6),
            (kerr_params(0.4, 2, delta=0.0), 6),
            (kerr_params(0.4, 3, delta=1.5), 8),
            (kerr_params(0.9, 1), 2),
            (kerr_params(0.94, 10), 12),
        ]
        for p, n in cases:
            a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
            ad = a.T
            n_op = ad @ a
            H = (
                p.delta * n_op
                + p.u / (2 * p.N) * ad @ ad @ a @ a
                + 1j * p.eps * math.sqrt(p.N) * (ad - a)
            )
            eye = np.eye(n)
            expected = -1j * (np.kron(eye, H) - np.kron(H.T, eye)) + 2 * p.kappa * (
                np.kron(a.conj(), a)
                - 0.5 * np.kron(eye, n_op)
                - 0.5 * np.kron(n_op.T, eye)
            )
            L = build_kerr_liouvillian(p, n, enforce_cutoff=False).matrix
            assert np.max(np.abs(L.toarray() - expected)) < 1e-12, (p, n)
            stored = np.zeros(expected.shape, dtype=bool)
            coo = L.tocoo()
            stored[coo.row, coo.col] = True  # explicit zeros included
            np.testing.assert_array_equal(stored, expected != 0, err_msg=f"{p}, {n}")


class TestSteadyState:
    def test_undriven_cavity_is_vacuum(self):
        L = build_kerr_liouvillian(undriven_params(), 10, enforce_cutoff=False)
        rho = steady_state(L)
        assert trace_distance(rho, vacuum(10)) < 1e-10

    def test_linear_cavity_amplitude(self):
        # d<a>/dt = E - kappa <a> = 0  ->  <a> = E/kappa = 2
        p = KerrParams(0.0, 1e-12, 0.5, 1.0, 1)
        L = build_kerr_liouvillian(p, 26, enforce_cutoff=False)
        rho = steady_state(L)
        assert abs(mean_amplitude(rho) - 2.0) < 1e-8

    def test_residual_below_contract(self):
        p = kerr_params(0.9, 5)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        rho = steady_state(L)
        assert L.residual(rho) < 1e-10

    def test_near_critical_large_size(self):
        # the slow mode sits near 4e-13 here; the solve must not mistake it
        # for a second null mode
        p = kerr_params(0.935, 40)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        assert L.residual(steady_state(L)) < 1e-10
        assert 0 < liouvillian_gap(L) < 1e-11

    def test_transition_curve_continuous_and_steep(self, ness_cache):
        # <a'a>/N rises steeply but continuously across the collapse region
        values = []
        for eps in (0.85, 0.925, 0.95, 1.0):
            rho, _ = ness_cache(kerr_params(eps, 10))
            values.append(mean_photon_number(rho) / 10)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 5 * values[0]


class TestEvolve:
    def test_vacuum_fixed_point(self):
        L = build_kerr_liouvillian(undriven_params(), 8, enforce_cutoff=False)
        rho = evolve(vacuum(8), L, 5.0)
        assert trace_distance(rho, vacuum(8)) < 1e-12

    def test_step_size_guard(self):
        # a generator that leaks trace at rate 0.1: the propagation must
        # stop on the drift rather than return a renormalized state
        L = build_kerr_liouvillian(undriven_params(), 8, enforce_cutoff=False)
        leaky = Superoperator(8, (L.matrix - 0.1 * sp.identity(L.dim)).tocsr())
        with pytest.raises(StepSizeError, match="trace drift"):
            evolve(vacuum(8), leaky, 1.0)

    def test_oracle_matches_eigensolver_quick(self):
        # light version of the oracle-equivalence gate (full run in acceptance)
        p = kerr_params(0.5, 2)
        n = recommended_cutoff(p)
        L = build_kerr_liouvillian(p, n)
        rho_eig = steady_state(L)
        rho_rk4, _ = evolve_to_stationarity(vacuum(n), L)
        assert trace_distance(rho_eig, rho_rk4) < 1e-8

    def test_short_time_photon_growth(self):
        # from vacuum: d<n>/dt|0 = 0 and d2<n>/dt2|0 = 2 (eps sqrt(N))^2,
        # cross-checked against finite differences of the propagated moments
        p = kerr_params(0.6, 2)
        n = 12
        L = build_kerr_liouvillian(p, n, enforce_cutoff=False)
        num = np.diag(np.arange(n))
        vac = vacuum(n)

        # direct superoperator route
        v = vectorize(vac.entries)
        lv = L.matrix @ v
        llv = L.matrix @ lv
        d1 = np.trace(num @ unvectorize(lv, n)).real
        d2 = np.trace(num @ unvectorize(llv, n)).real
        assert abs(d1) < 1e-12
        assert d2 == pytest.approx(2.0 * p.pump ** 2, rel=1e-10)

        # finite differences of RK4-propagated moments; the one-sided
        # stencil has O(h) bias, removed by Richardson extrapolation
        def n_at(t):
            if t == 0:
                return 0.0
            rho = evolve(vac, L, t)
            return mean_photon_number(rho)

        def fd2(h):
            return (n_at(2 * h) - 2 * n_at(h)) / h ** 2

        extrapolated = 2.0 * fd2(0.005) - fd2(0.01)
        assert extrapolated == pytest.approx(d2, rel=1e-3)


class TestGap:
    def test_undriven_gap_equals_kappa(self):
        # cross-check against the dense damping spectrum of the lossy mode
        kappa = 0.5
        L = build_kerr_liouvillian(undriven_params(kappa=kappa), 10, enforce_cutoff=False)
        assert liouvillian_gap(L) == pytest.approx(kappa, abs=1e-9)
        vals = sla.eigvals(L.matrix.toarray())
        nonzero = vals[np.abs(vals) > 1e-11]
        assert -nonzero.real.max() == pytest.approx(kappa, abs=1e-9)

    def test_gap_positive_at_finite_size(self, ness_cache):
        p = kerr_params(0.9, 5)
        _, L = ness_cache(p)
        assert liouvillian_gap(L) > 0

    def test_gap_decreases_with_system_size(self):
        gaps = []
        for N in (5, 10, 15):
            p = kerr_params(0.9, N)
            L = build_kerr_liouvillian(p, recommended_cutoff(p))
            gaps.append(liouvillian_gap(L))
        assert gaps[0] > gaps[1] > gaps[2] > 0

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_matches_dense_spectrum_across_window(self, N):
        # dense oracle, on the real matrix of L (same spectrum, about twice
        # as fast to solve): drop the eigenvalue of smallest modulus (the
        # null mode), the gap is minus the largest remaining real part.  Off
        # the window the slowest decay is not among the few eigenvalues
        # closest to zero: asking ARPACK for 3 or 4 misses it at N = 1
        # below the window, and 3 misses it at N = 2 and 3 above it.
        # Above the window N = 4 exceeds the size cap.
        win = bistability_window(kerr_params(0.0, 1))
        drives = [
            np.linspace(0.0, 0.5 * win.eps_lo, 5),
            np.linspace(win.eps_lo, win.eps_hi, 7),
        ]
        if N <= 3:
            drives.append(np.linspace(win.eps_hi, 1.5 * win.eps_hi, 7)[4:])
        for eps in np.concatenate(drives):
            p = kerr_params(float(eps), N)
            L = build_kerr_liouvillian(p, recommended_cutoff(p))
            assert L.dim <= 1100
            vals = sla.eigvals(real_generator(L))
            # the RK4 oracle's step bound: every dt lambda is a stable step
            assert np.abs(vals).max() <= spnorm(L.matrix, 1)
            z = vals * max_stable_dt(L)
            assert np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24).max() <= 1 + 1e-12
            vals = np.delete(vals, np.argmin(np.abs(vals)))
            dense = -vals.real.max()
            assert liouvillian_gap(L) == pytest.approx(dense, rel=1e-9)

    def test_real_generator_keeps_the_spectrum(self):
        # the real matrix and the complex one, paired eigenvalue by
        # eigenvalue, at the dense test's N = 2 drives below and across the
        # window.  Above it some eigenvalues have condition numbers up to
        # 7e7, and the two dense solves differ by up to 2.3e-10 of the
        # spectral radius there, each within 20 cond eps_mach of it.
        win = bistability_window(kerr_params(0.0, 1))
        drives = np.concatenate([
            np.linspace(0.0, 0.5 * win.eps_lo, 5),
            np.linspace(win.eps_lo, win.eps_hi, 7),
        ])
        for eps in drives:
            p = kerr_params(float(eps), 2)
            L = build_kerr_liouvillian(p, recommended_cutoff(p))
            real = sla.eigvals(real_generator(L))
            complex_ = sla.eigvals(L.matrix.toarray())
            rows, cols = linear_sum_assignment(np.abs(np.subtract.outer(real, complex_)))
            scale = np.abs(complex_).max()
            assert np.abs(real[rows] - complex_[cols]).max() <= 1e-10 * scale

    def test_enough_eigenvalues_above_window(self):
        # above the window at N=10 the slowest decay is not among the 5
        # eigenvalues closest to zero (5 return 0.5185 here, against 0.5112)
        eps = 1.125 * bistability_window(kerr_params(0.0, 1)).eps_hi
        p = kerr_params(eps, 10)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        assert L.n_max == 66
        gap = liouvillian_gap(L)
        assert gap == pytest.approx(reference_gap(L), rel=1e-9)

    @pytest.mark.parametrize("eps", [0.95, 0.955, 0.96, 1.1662, 1.3119, 1.4577])
    def test_ritz_tolerance_keeps_the_gap(self, eps):
        # in the window and above it, where the slowest decay sits deeper
        # in the spectrum; the reference reuses the same LU
        p = kerr_params(eps, 10)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        gap = liouvillian_gap(L)
        assert gap == pytest.approx(reference_gap(L), rel=1e-9)

    def test_unseparated_slow_mode_converges_all_eight(self, caplog):
        # the dominant Ritz value has converged after 22 solves, but it is
        # only 1.8 times larger in modulus than the next one; stopping on
        # it there gives 0.562, 11 % above the gap, so the pass must run
        # on until all 8 have converged
        p = kerr_params(1.29, 15)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        with caplog.at_level("DEBUG", logger="wehrlflux.liouvillian"):
            gap = liouvillian_gap(L)
        assert gap == pytest.approx(reference_gap(L), rel=1e-9)
        assert caplog.messages[-1].endswith("stop: all 8 converged")

    def test_gap_solve_count(self, monkeypatch, caplog):
        # each Krylov step is one LU solve: 22 near eps_c at N=10, where
        # the slow mode is 3.0e3 times larger in modulus than the rest of
        # the spectrum of B^-1, against 39 for ARPACK with 8 eigenvalues
        # converged to GAP_RITZ_TOL.  The fixed start vector on one BLAS
        # thread makes the count the same on every run.
        solves = []
        real_splu = liouvillian.splu

        class CountingLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                solves.append(1)
                return self.lu.solve(rhs)

        monkeypatch.setattr(
            liouvillian, "splu", lambda *a, **kw: CountingLU(real_splu(*a, **kw))
        )
        p = kerr_params(0.955, 10)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        assert L.n_max == 60
        with caplog.at_level("DEBUG", logger="wehrlflux.liouvillian"):
            assert liouvillian_gap(L) > 0
        assert len(solves) < 30
        # the pass logs its own count, so a debug-level run shows it
        (message,) = caplog.messages
        assert message.startswith(f"gap: {len(solves)} LU solves, stop: ")

    @pytest.mark.parametrize("eps, stop", [
        (0.955, "stop: separated slow mode (|theta_1 / theta_2| = 3.0e+03)"),
        (1.3, "stop: all 8 converged"),
    ])
    def test_debug_line_names_the_stop(self, caplog, eps, stop):
        # near eps_c the slow mode is separated from the rest of the
        # spectrum and stops the pass alone; above the window it is not,
        # and all 8 wanted values converge
        p = kerr_params(eps, 10)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        with caplog.at_level("DEBUG", logger="wehrlflux.liouvillian"):
            liouvillian_gap(L)
        (message,) = caplog.messages
        assert message.endswith(stop)

    def test_solve_cap_raises_with_count(self, monkeypatch):
        monkeypatch.setattr(liouvillian, "GAP_MAX_SOLVES", 5)
        p = kerr_params(0.955, 10)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        with pytest.raises(SolverConvergenceError, match="after 5 LU solves"):
            liouvillian_gap(L)

    def test_gap_below_roundoff_floor_raises(self):
        # two levels whose populations swap at rate 1e-20: the gap 2e-20
        # lies far below eps_mach ||L||_1, so it cannot be resolved
        rate = 1e-20
        mat = sp.csr_matrix(np.array(
            [[-rate, 0, 0, rate],
             [0, -1.0, 0, 0],
             [0, 0, -1.0, 0],
             [rate, 0, 0, -rate]],
            dtype=complex,
        ))
        with pytest.raises(SolverConvergenceError, match="roundoff floor"):
            liouvillian_gap(Superoperator(2, mat))


class TestBorderedLU:
    @pytest.fixture
    def factored(self, monkeypatch):
        """Matrices passed to splu, recorded through a wrapper."""
        seen = []
        real_splu = liouvillian.splu

        def counting_splu(B, *args, **kwargs):
            seen.append(B)
            return real_splu(B, *args, **kwargs)

        monkeypatch.setattr(liouvillian, "splu", counting_splu)
        return seen

    def test_steady_state_and_gap_share_one_factorization(self, factored):
        p = kerr_params(0.9, 5)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        steady_state(L)
        liouvillian_gap(L)
        assert len(factored) == 1

    def test_sweep_point_factors_once(self, factored):
        result = kerr_model.sweep(kerr_params(0.0, 1), [5], [0.9], compute_gap=True)
        (record,) = result.records
        assert record.gap > 0
        assert len(factored) == 1

    def test_ordering_reduces_fill(self, factored):
        # near eps_c at N=10 the default COLAMD ordering gives ~233k
        # nonzeros in L + U, minimum degree on B^T + B ~153k
        p = kerr_params(0.955, 10)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        assert L.n_max == 60
        lu = L.bordered_lu
        default = splu(factored[0])
        assert lu.L.nnz + lu.U.nnz < 0.8 * (default.L.nnz + default.U.nnz)
