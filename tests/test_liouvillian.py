import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import norm as spnorm
from scipy.sparse.linalg import splu

from conftest import kerr_params, random_density_matrix
from wehrlflux import kerr_model, liouvillian
from wehrlflux.errors import CutoffError, SolverConvergenceError, StepSizeError
from wehrlflux.fock_algebra import (
    DensityMatrix,
    annihilation,
    mean_amplitude,
    mean_photon_number,
    trace_distance,
    unvectorize,
    vectorize,
)
from wehrlflux.kerr_model import bistability_window, recommended_cutoff
from wehrlflux.liouvillian import (
    KerrParams,
    Superoperator,
    build_kerr_liouvillian,
    evolve,
    evolve_to_stationarity,
    liouvillian_gap,
    max_stable_dt,
    steady_state,
)


def undriven_params(kappa=0.5, delta=0.0):
    # eps = 0 with a tiny nonlinearity: effectively the damped linear cavity
    return KerrParams(delta, 1e-12, kappa, 0.0, 1)


def reference_gap(L, monkeypatch):
    """Gap from 30 eigenvalues converged to machine precision (tol 0)."""
    monkeypatch.setattr(liouvillian, "GAP_EIGENVALUES", 30)
    monkeypatch.setattr(liouvillian, "GAP_RITZ_TOL", 0.0)
    return liouvillian_gap(L)


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
        out = L.apply(rho.entries)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_spectrum_left_half_plane(self):
        L = build_kerr_liouvillian(kerr_params(0.7, 2), 10, enforce_cutoff=False)
        vals = sla.eigvals(L.matrix.toarray())
        assert vals.real.max() < 1e-10

    def test_drive_acts_on_vacuum(self):
        L = build_kerr_liouvillian(kerr_params(0.5, 2), 10, enforce_cutoff=False)
        out = L.apply(DensityMatrix.vacuum(10).entries)
        assert np.max(np.abs(out)) > 1e-3

    def test_cutoff_enforcement(self):
        p = kerr_params(0.9, 10)
        with pytest.raises(CutoffError):
            build_kerr_liouvillian(p, 10)

    def test_vectorization_convention(self):
        # L matches -i(I x H - H^T x I) + 2k(conj(a) x a - ...) explicitly
        import scipy.sparse as sp

        p = kerr_params(0.4, 2)
        n = 6
        a = annihilation(n).toarray()
        H = (
            p.delta * a.conj().T @ a
            + p.u / (2 * p.N) * a.conj().T @ a.conj().T @ a @ a
            + 1j * p.eps * math.sqrt(p.N) * (a.conj().T - a)
        )
        eye = np.eye(n)
        n_op = a.conj().T @ a
        expected = -1j * (np.kron(eye, H) - np.kron(H.T, eye)) + 2 * p.kappa * (
            np.kron(a.conj(), a)
            - 0.5 * np.kron(eye, n_op)
            - 0.5 * np.kron(n_op.T, eye)
        )
        L = build_kerr_liouvillian(p, n, enforce_cutoff=False)
        assert np.max(np.abs(L.matrix.toarray() - expected)) < 1e-12


class TestSteadyState:
    def test_undriven_cavity_is_vacuum(self):
        L = build_kerr_liouvillian(undriven_params(), 10, enforce_cutoff=False)
        rho = steady_state(L)
        assert trace_distance(rho, DensityMatrix.vacuum(10)) < 1e-10

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
        rho = evolve(DensityMatrix.vacuum(8), L, 5.0)
        assert trace_distance(rho, DensityMatrix.vacuum(8)) < 1e-12

    def test_step_size_guard(self):
        # a generator that leaks trace at rate 0.1: the propagation must
        # stop on the drift rather than return a renormalized state
        L = build_kerr_liouvillian(undriven_params(), 8, enforce_cutoff=False)
        leaky = Superoperator(8, (L.matrix - 0.1 * sp.identity(L.dim)).tocsr())
        with pytest.raises(StepSizeError, match="trace drift"):
            evolve(DensityMatrix.vacuum(8), leaky, 1.0)

    def test_oracle_matches_eigensolver_quick(self):
        # light version of the oracle-equivalence gate (full run in acceptance)
        p = kerr_params(0.5, 2)
        n = recommended_cutoff(p)
        L = build_kerr_liouvillian(p, n)
        rho_eig = steady_state(L)
        rho_rk4, _ = evolve_to_stationarity(DensityMatrix.vacuum(n), L)
        assert trace_distance(rho_eig, rho_rk4) < 1e-8

    def test_short_time_photon_growth(self):
        # from vacuum: d<n>/dt|0 = 0 and d2<n>/dt2|0 = 2 (eps sqrt(N))^2,
        # cross-checked against finite differences of the propagated moments
        p = kerr_params(0.6, 2)
        n = 12
        L = build_kerr_liouvillian(p, n, enforce_cutoff=False)
        num = np.diag(np.arange(n))
        vac = DensityMatrix.vacuum(n)

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
        # dense oracle: drop the eigenvalue of smallest modulus (the null
        # mode), the gap is minus the largest remaining real part.  Off
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
            vals = sla.eigvals(L.matrix.toarray())
            # the RK4 oracle's step bound: every dt lambda is a stable step
            assert np.abs(vals).max() <= spnorm(L.matrix, 1)
            z = vals * max_stable_dt(L)
            assert np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24).max() <= 1 + 1e-12
            vals = np.delete(vals, np.argmin(np.abs(vals)))
            dense = -vals.real.max()
            assert liouvillian_gap(L) == pytest.approx(dense, rel=1e-9)

    def test_enough_eigenvalues_above_window(self, monkeypatch):
        # above the window at N=10 the slowest decay is not among the 5
        # eigenvalues closest to zero (5 return 0.5185 here, against 0.5112)
        eps = 1.125 * bistability_window(kerr_params(0.0, 1)).eps_hi
        p = kerr_params(eps, 10)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        assert L.n_max == 66
        gap = liouvillian_gap(L)
        assert gap == pytest.approx(reference_gap(L, monkeypatch), rel=1e-9)

    @pytest.mark.parametrize("eps", [0.95, 0.955, 0.96, 1.1662, 1.3119, 1.4577])
    def test_ritz_tolerance_keeps_the_gap(self, monkeypatch, eps):
        # in the window and above it, where the slowest decay sits deeper
        # in the spectrum; the reference reuses the same LU
        p = kerr_params(eps, 10)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        gap = liouvillian_gap(L)
        assert gap == pytest.approx(reference_gap(L, monkeypatch), rel=1e-9)

    def test_gap_solve_count(self, monkeypatch, caplog):
        # each Arnoldi step is one LU solve: 39 near eps_c at N=10 with 8
        # eigenvalues converged to GAP_RITZ_TOL, against 66 converged to
        # machine precision and 116 with 12.  The fixed start vector on
        # one BLAS thread makes the count the same on every run.
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
        assert len(solves) < 50
        # the pass logs its own count, so a debug-level run shows it
        assert caplog.messages == [
            f"gap: {len(solves)} LU solves, 8 converged Ritz values"
        ]

    def test_arpack_failure_has_reason(self, monkeypatch):
        # 30 eigenvalues of a 64-dimensional operator leave ARPACK no
        # room to restart: "ARPACK error 3: No shifts could be applied"
        monkeypatch.setattr(liouvillian, "GAP_EIGENVALUES", 30)
        p = kerr_params(0.0, 6)
        L = build_kerr_liouvillian(p, recommended_cutoff(p))
        assert L.n_max == 8
        with pytest.raises(SolverConvergenceError, match="ARPACK error 3"):
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
