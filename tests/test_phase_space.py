import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.special

from conftest import BALANCE_DRIVES, kerr_params, random_density_matrix
from oracles.rk4 import evolve
from oracles.states import annihilation, coherent, thermal, vacuum, von_neumann_entropy
from oracles.tensor_grid import tensor_budget
from wehrlflux.budget import KerrParams
from wehrlflux.dicke_gaussian import CovarianceMatrix, gaussian_budget, unitary_diffusion
from wehrlflux.errors import DimensionError, MassDeficitError
from wehrlflux.fock_algebra import (
    DensityMatrix,
    coherent_components,
    mean_amplitude,
    mean_photon_number,
)
from wehrlflux.liouvillian import MAX_CUTOFF, build_kerr_liouvillian
from wehrlflux.phase_space import (
    auto_grid,
    build_grid,
    entropy_budget,
    entropy_flux,
    flux_split,
    husimi_field,
    pi_d,
    pi_u_kerr,
    polar_grid,
    polar_husimi_field,
    wehrl_entropy,
)

WEHRL_VACUUM = 1.0 + math.log(math.pi)


def husimi_at(rho: DensityMatrix, mu: complex) -> float:
    """Independent pointwise Husimi evaluation used as the test oracle."""
    c = coherent_components(mu, rho.dim)
    return float((c.conj() @ rho.entries @ c).real) / math.pi


def quadrature_covariance(rho: DensityMatrix) -> np.ndarray:
    """2x2 symmetrized covariance of the fluctuations of (q, p)."""
    a = annihilation(rho.dim)
    q = (a + a.conj().T) / math.sqrt(2.0)
    p = 1j * (a.conj().T - a) / math.sqrt(2.0)
    dq, dp = (X - np.trace(rho.entries @ X).real * np.eye(rho.dim) for X in (q, p))
    out = np.empty((2, 2))
    for i, A in enumerate((dq, dp)):
        for j, B in enumerate((dq, dp)):
            out[i, j] = 0.5 * np.trace(rho.entries @ (A @ B + B @ A)).real
    return out


def squeezed_vacuum(r: float, dim: int = 48) -> DensityMatrix:
    a = annihilation(dim)
    S = sla.expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))
    psi = S @ np.eye(dim)[:, 0]
    psi /= np.linalg.norm(psi)
    return DensityMatrix(dim, np.outer(psi, psi.conj()))


class TestGrid:
    def test_arithmetic(self):
        g = build_grid(0.0, 5.0, 64)
        assert g.nodes.size == 4096
        assert g.weights.sum() == pytest.approx(100.0)

    def test_minimum_resolution_enforced(self):
        with pytest.raises(DimensionError):
            build_grid(0.0, 5.0, 32)

    def test_vacuum_mass(self):
        g = build_grid(0.0, 6.0, 64)
        f = husimi_field(vacuum(10), g)
        assert abs(f.mass - 1.0) < 1e-10

    def test_displaced_grid_mass_translation_invariance(self):
        mu0 = 1.5 + 0.5j
        rho = coherent(mu0, 30)
        f = husimi_field(rho, build_grid(mu0, 6.0, 64))
        assert abs(f.mass - 1.0) < 1e-10


class TestHusimiField:
    def test_vacuum_values(self):
        for points in (64, 65):  # 65 puts a node at mu = 0
            g = build_grid(0.0, 6.0, points)
            f = husimi_field(vacuum(12), g)
            expected = np.exp(-np.abs(g.nodes) ** 2) / math.pi
            assert np.max(np.abs(f.Q - expected)) < 1e-12

    @pytest.mark.parametrize("dim", [60, 149, 400, MAX_CUTOFF])
    def test_coherent_matrix_matches_components(self, dim):
        # the tensor path's matrix of coherent columns, from one call over
        # all nodes: every entry above 1e-290 matches mpmath's recurrence
        # out to |mu| = 45, where exp(-|mu|^2/2) alone underflows, and up
        # to the largest cutoff a generator may have
        import mpmath

        rng = np.random.default_rng(dim)
        radii = np.concatenate([[0.0], rng.uniform(0.0, 45.0, 199), [45.0]])
        mu = radii * np.exp(2j * np.pi * rng.uniform(size=radii.size))
        C = coherent_components(mu, dim)
        assert np.all(np.isfinite(C))
        with mpmath.workdps(30):
            roots = [mpmath.sqrt(n) for n in range(1, dim)]
            for k, m in enumerate(mu):
                z = mpmath.mpc(m)
                exact = [mpmath.exp(-abs(z) ** 2 / 2)]
                for root in roots:
                    exact.append(exact[-1] * z / root)
                ref = np.array([complex(v) for v in exact])
                big = np.abs(ref) > 1e-290
                assert np.all(np.abs(C[big, k] - ref[big]) <= 1e-12 * np.abs(ref[big]))

    def test_coherent_values_and_derivative_identity(self):
        alpha = 1.2 - 0.8j
        rho = coherent(alpha, 40)
        g = build_grid(alpha, 6.0, 96)
        f = husimi_field(rho, g)
        expected = np.exp(-np.abs(g.nodes - alpha) ** 2) / math.pi
        assert np.max(np.abs(f.Q - expected)) < 1e-10

        rng = np.random.default_rng(11)
        idx = rng.choice(g.nodes.size, size=20, replace=False)
        h = 1e-4
        for k in idx:
            mu = g.nodes[k]
            dx = (husimi_at(rho, mu + h) - husimi_at(rho, mu - h)) / (2 * h)
            dy = (husimi_at(rho, mu + 1j * h) - husimi_at(rho, mu - 1j * h)) / (2 * h)
            fd = 0.5 * (dx + 1j * dy)
            assert abs(fd - f.dQ_dmubar[k]) < 1e-6

    def test_derivative_identity_random_states(self):
        rng = np.random.default_rng(23)
        h = 1e-4
        for _ in range(5):
            rho = random_density_matrix(10, rng)
            f = husimi_field(rho, auto_grid(rho, points_per_axis=64))
            idx = rng.choice(f.grid.nodes.size, size=20, replace=False)
            for k in idx:
                mu = f.grid.nodes[k]
                dx = (husimi_at(rho, mu + h) - husimi_at(rho, mu - h)) / (2 * h)
                dy = (husimi_at(rho, mu + 1j * h) - husimi_at(rho, mu - 1j * h)) / (2 * h)
                fd = 0.5 * (dx + 1j * dy)
                assert abs(fd - f.dQ_dmubar[k]) < 1e-6

    @pytest.mark.parametrize("dim", [10, 90])
    def test_derivative_matches_explicit_ladder_product(self, dim):
        # dQ/dmubar = -mu Q + conj(c)^T (a rho) c / pi with a built explicitly;
        # at dim 90 half the weight sits in the top Fock level, where the
        # row shift runs out of rows.  The components are the field's own,
        # from ``coherent_components``: at n ~ 90 the roundoff of two
        # independent component evaluations already differs by ~5e-13 of
        # max|dQ|.
        rng = np.random.default_rng(dim)
        rho = random_density_matrix(dim, rng).entries
        if dim == 90:
            rho = 0.5 * rho
            rho[-1, -1] += 0.5
        rho = DensityMatrix(dim, rho)
        f = husimi_field(rho, build_grid(0.0, 16.0, 192))
        idx = rng.choice(f.grid.nodes.size, size=200, replace=False)
        mu = f.grid.nodes[idx]
        C = coherent_components(mu, dim)
        a_rho = annihilation(dim) @ rho.entries
        explicit = np.einsum("nk,nk->k", C.conj(), a_rho @ C) / math.pi
        expected = -mu * f.Q[idx] + explicit
        scale = np.max(np.abs(f.dQ_dmubar))
        assert np.max(np.abs(f.dQ_dmubar[idx] - expected)) < 1e-13 * scale

    def test_conjugate_derivative_invariant(self):
        rho = thermal(0.5, 30)
        f = husimi_field(rho, auto_grid(rho, points_per_axis=64))
        assert np.array_equal(f.dQ_dmu, f.dQ_dmubar.conj())

    def test_thermal_values_and_mass(self):
        rho = thermal(1.0, 60)
        g = build_grid(0.0, 6.0 * math.sqrt(2.0), 128)
        f = husimi_field(rho, g)
        expected = np.exp(-np.abs(g.nodes) ** 2 / 2.0) / (2.0 * math.pi)
        assert np.max(np.abs(f.Q - expected)) < 1e-10
        assert abs(f.mass - 1.0) < 1e-8

    def test_mass_deficit_error(self):
        rho = coherent(3.0, 40)
        with pytest.raises(MassDeficitError):
            husimi_field(rho, build_grid(0.0, 2.0, 64))


class TestPolarField:
    """The pipeline's polar rule against the tensor oracle and Fock moments."""

    @pytest.mark.parametrize("r", [40.0, 45.0])
    def test_radial_amplitudes_do_not_underflow(self, r):
        # sum_n a_n(r)^2 = exp(-r^2) sum_n r^(2n)/n! = 1 once dim covers the
        # Poisson(r^2) support; the naive product underflows and overflows
        dim = int(r * r + 20 * r)
        n = np.arange(dim)
        with np.errstate(all="ignore"):
            naive = np.exp(-0.5 * r * r) * r ** n / np.sqrt(scipy.special.factorial(n))
        assert not np.isclose(np.sum(naive ** 2), 1.0)
        c = coherent_components(np.array([r]), dim)[:, 0]
        # on the positive real axis the components are the real a_n(r)
        assert not c.imag.any()
        amp = c.real
        assert np.sum(amp ** 2) == pytest.approx(1.0, rel=1e-12)
        import mpmath

        with mpmath.workdps(30):
            for k in (int(r * r) - 3 * int(r), int(r * r), int(r * r) + 3 * int(r)):
                exact = mpmath.exp(-mpmath.mpf(r) ** 2 / 2) * mpmath.mpf(r) ** k
                exact /= mpmath.sqrt(mpmath.factorial(k))
                assert amp[k] == pytest.approx(float(exact), rel=1e-11)

    @pytest.mark.parametrize("dim", [12, 60])
    def test_values_match_coherent_matrix_product(self, dim):
        # Q = conj(c)^T rho c / pi and dQ/dmubar = -mu Q + conj(c)^T (a rho) c / pi
        # at every node, c the node's column of the coherent matrix
        rng = np.random.default_rng(dim)
        rho = random_density_matrix(dim, rng)
        f = polar_husimi_field(rho, polar_grid(rho))
        C = coherent_components(f.grid.nodes, dim)
        Q = np.einsum("nk,nk->k", C.conj(), rho.entries @ C).real / math.pi
        a_rho = annihilation(dim) @ rho.entries
        dQ = -f.grid.nodes * Q + np.einsum("nk,nk->k", C.conj(), a_rho @ C) / math.pi
        assert np.max(np.abs(f.Q - Q)) < 1e-13 * Q.max()
        assert np.max(np.abs(f.dQ_dmubar - dQ)) < 1e-13 * np.max(np.abs(dQ))

    def test_real_entries(self):
        # a real-valued rho gives the field of its complex copy
        entries = np.diag([0.5, 0.3, 0.2])
        entries[0, 1] = entries[1, 0] = 0.1
        real = DensityMatrix(3, entries)
        cplx = DensityMatrix(3, entries.astype(complex))
        f_real = polar_husimi_field(real, polar_grid(real))
        f_cplx = polar_husimi_field(cplx, polar_grid(cplx))
        assert np.array_equal(f_real.Q, f_cplx.Q)
        assert np.array_equal(f_real.dQ_dmubar, f_cplx.dQ_dmubar)

    @pytest.mark.parametrize(
        "state",
        ["coherent", "displaced-squeezed-thermal", "random", "kerr"],
    )
    def test_moment_identities(self, state, ness_cache):
        # int mu Q = <a> and int |mu|^2 Q = <a^dag a> + 1 (anti-normal order)
        if state == "coherent":
            rho = coherent(1.2 - 0.8j, 40)
        elif state == "displaced-squeezed-thermal":
            entries, _ = displaced_squeezed_thermal(0.2, 0.3, 1.5 + 0.5j, 60)
            rho = DensityMatrix(60, 0.5 * (entries + entries.conj().T))
        elif state == "random":
            rho = random_density_matrix(12, np.random.default_rng(5))
        else:
            rho, _ = ness_cache(kerr_params(0.95, 10))
        f = polar_husimi_field(rho, polar_grid(rho))
        mu = f.grid.nodes
        first = np.dot(f.grid.weights, mu * f.Q)
        second = np.dot(f.grid.weights, np.abs(mu) ** 2 * f.Q)
        mean_a = mean_amplitude(rho)
        assert abs(first - mean_a) <= 1e-12 * abs(mean_a)
        assert second == pytest.approx(mean_photon_number(rho) + 1.0, rel=1e-12)
        assert f.mass == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "N, eps", [(10, eps) for eps in BALANCE_DRIVES] + [(30, 0.941)]
    )
    def test_budget_matches_tensor_256(self, ness_cache, N, eps):
        # criterion 4's states and one N=30 drive near eps_c: the pipeline's
        # budget against the oracle on a 256^2 tensor grid
        p = kerr_params(eps, N)
        rho, _ = ness_cache(p)
        polar = entropy_budget(rho, p)
        tensor = tensor_budget(rho, p, auto_grid(rho, points_per_axis=256))
        assert polar.S == pytest.approx(tensor.S, rel=1e-9)
        assert polar.Pi_d == pytest.approx(tensor.Pi_d, rel=1e-9)
        assert polar.Pi_u == pytest.approx(tensor.Pi_u, rel=1e-8)

    def test_mass_deficit_error(self):
        # the vacuum's grid ends at r = 5.5, too close for a state at mu = 3
        grid = polar_grid(vacuum(40))
        with pytest.raises(MassDeficitError):
            polar_husimi_field(coherent(3.0, 40), grid)

    def test_too_few_angles_rejected(self):
        grid = polar_grid(vacuum(5))
        with pytest.raises(DimensionError, match="alias"):
            polar_husimi_field(vacuum(20), grid)


class TestWehrlEntropy:
    def test_vacuum(self):
        f = husimi_field(vacuum(10), build_grid(0.0, 6.0, 128))
        assert wehrl_entropy(f) == pytest.approx(WEHRL_VACUUM, abs=1e-6)

    def test_displacement_invariance(self):
        alpha = 2.0
        rho = coherent(alpha, 40)
        f = husimi_field(rho, build_grid(alpha, 6.0, 128))
        assert wehrl_entropy(f) == pytest.approx(WEHRL_VACUUM, abs=1e-6)

    def test_thermal(self):
        nbar = 1.0
        rho = thermal(nbar, 60)
        f = husimi_field(rho, build_grid(0.0, 8.5, 128))
        assert wehrl_entropy(f) == pytest.approx(
            WEHRL_VACUUM + math.log(1.0 + nbar), abs=1e-6
        )


class TestFlux:
    def test_vacuum_zero(self):
        assert entropy_flux(vacuum(8), 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_coherent_flux(self):
        # steady coherent amplitude E/kappa = 2: Phi = 2 kappa |alpha|^2 = 4
        rho = coherent(2.0, 40)
        assert entropy_flux(rho, 0.5) == pytest.approx(4.0, rel=1e-10)

    def test_thermal_flux(self):
        rho = thermal(2.0, 80)
        assert entropy_flux(rho, 0.5) == pytest.approx(2.0, rel=1e-10)

    def test_split_exact_and_coherent(self):
        rho = coherent(1.3, 40)
        phi_ext, phi_q = flux_split(rho, 0.5, 4)
        assert phi_ext + phi_q == pytest.approx(entropy_flux(rho, 0.5), abs=1e-13)
        assert phi_q < 1e-10

    def test_split_vacuum(self):
        assert flux_split(vacuum(8), 0.5, 2) == (0.0, 0.0)

    def test_kerr_variance_peaks_near_transition(self, ness_cache):
        rho_far, _ = ness_cache(kerr_params(0.75, 10))
        rho_near, _ = ness_cache(kerr_params(0.95, 10))
        _, phi_q_far = flux_split(rho_far, 0.5, 10)
        _, phi_q_near = flux_split(rho_near, 0.5, 10)
        assert phi_q_near > 10.0 * phi_q_far


class TestDissipativeProduction:
    def test_vacuum_current_vanishes(self):
        f = husimi_field(vacuum(10), build_grid(0.0, 6.0, 64))
        assert pi_d(f, 0.5, 0.0, 1) < 1e-20

    def test_coherent_displaced_current_vanishes(self):
        alpha = 1.5
        rho = coherent(alpha, 40)
        f = husimi_field(rho, build_grid(alpha, 6.0, 96))
        assert pi_d(f, 0.5, alpha, 1) < 1e-16

    @pytest.mark.parametrize("state", ["thermal", "squeezed"])
    def test_gaussian_closed_form(self, state):
        # closed form for a centered Gaussian: kappa * sum_quadratures of
        # (Sigma - 2I + Sigma^{-1}), with Sigma the Husimi covariance
        kappa = 0.7
        if state == "thermal":
            rho = thermal(1.0, 60)
        else:
            rho = squeezed_vacuum(0.5)
        Sigma = quadrature_covariance(rho) + 0.5 * np.eye(2)
        T = Sigma - 2.0 * np.eye(2) + np.linalg.inv(Sigma)
        closed = kappa * (T[0, 0] + T[1, 1])
        f = husimi_field(rho, auto_grid(rho, points_per_axis=128))
        quad = pi_d(f, kappa, 0.0, 1)
        assert quad == pytest.approx(closed, rel=1e-4)

    def test_thermal_closed_form_value(self):
        # hand value: Pi_d(thermal) = 2 kappa nbar^2 / (nbar + 1)
        nbar, kappa = 1.0, 0.5
        rho = thermal(nbar, 60)
        f = husimi_field(rho, auto_grid(rho, points_per_axis=128))
        assert pi_d(f, kappa, 0.0, 1) == pytest.approx(
            2.0 * kappa * nbar ** 2 / (nbar + 1.0), rel=1e-6
        )

    def test_recentering_invariance(self, ness_cache):
        p = kerr_params(0.9, 5)
        rho, _ = ness_cache(p)
        alpha = mean_amplitude(rho) / math.sqrt(p.N)
        base = auto_grid(rho, points_per_axis=128)
        shifted = build_grid(base.center + (0.3 + 0.2j), base.half_width + 0.6, 128)
        v1 = pi_d(husimi_field(rho, base), p.kappa, alpha, p.N)
        v2 = pi_d(husimi_field(rho, shifted), p.kappa, alpha, p.N)
        assert abs(v1 - v2) < 1e-6


class TestUnitaryProduction:
    def test_zero_nonlinearity(self):
        f = husimi_field(thermal(0.5, 30), build_grid(0.0, 8.0, 64))
        assert pi_u_kerr(f, 0.0, 1) == 0.0

    def test_coherent_state_cancellation(self):
        alpha = 1.1 + 0.4j
        rho = coherent(alpha, 40)
        f = husimi_field(rho, build_grid(alpha, 6.0, 128))
        assert abs(pi_u_kerr(f, 1.0, 1)) < 1e-8

    def test_kerr_ness_magnitudes(self, ness_cache):
        # near the transition the unitary part is positive and subleading
        p = kerr_params(0.95, 10)
        rho, _ = ness_cache(p)
        f = husimi_field(rho, auto_grid(rho))
        alpha = mean_amplitude(rho) / math.sqrt(p.N)
        piu = pi_u_kerr(f, p.u, p.N)
        pid = pi_d(f, p.kappa, alpha, p.N)
        assert piu > 0
        assert pid > 10.0 * piu

    def test_displaced_and_origin_grids_agree(self, ness_cache):
        # same integral in displaced or original coordinates
        p = kerr_params(0.8, 5)
        rho, _ = ness_cache(p)
        f1 = husimi_field(rho, auto_grid(rho, points_per_axis=160))
        g0 = build_grid(0.0, abs(mean_amplitude(rho)) + auto_grid(rho).half_width, 192)
        f0 = husimi_field(rho, g0)
        v1 = pi_u_kerr(f1, p.u, p.N)
        v0 = pi_u_kerr(f0, p.u, p.N)
        assert abs(v1 - v0) < 1e-6


class TestLeadingOrderUnitary:
    """The leading-order unitary production is the Gaussian one,
    Pi_u = (1/2) tr(D_u Sigma^-1) of ``gaussian_budget``."""

    def test_zero_squeezing_constant(self):
        # a pure rotation G = w I does not squeeze: D_u = 0, so Pi_u = 0
        sigma = CovarianceMatrix(quadrature_covariance(squeezed_vacuum(0.4)))
        assert gaussian_budget(sigma, 1.3 * np.eye(2), (0.5,), 0.0, 1).Pi_u == 0.0

    def test_gaussian_closed_form(self):
        # (1/2) tr(D_u Sigma^-1) against the defining integral
        # (1/2) int (grad Q)^T D_u (grad Q) / Q on the Husimi grid, with
        # grad Q = sqrt(2) (Re, Im) dQ/dmubar in R = (q, p)
        rho = squeezed_vacuum(0.4)
        G = np.array([[0.3, -0.7], [-0.7, -0.2]])
        f = husimi_field(rho, auto_grid(rho, points_per_axis=128))
        keep = f.Q > 1e-14 * f.Q.max()
        z = f.dQ_dmubar[keep]
        grad = math.sqrt(2.0) * np.stack([z.real, z.imag])
        integrand = np.einsum("ik,ij,jk->k", grad, unitary_diffusion(G), grad)
        quad = 0.5 * np.dot(f.grid.weights[keep], integrand / f.Q[keep])
        sigma = CovarianceMatrix(quadrature_covariance(rho))
        closed = gaussian_budget(sigma, G, (1.0,), 0.0, 1).Pi_u
        assert quad == pytest.approx(closed, rel=1e-9)

    def test_matches_exact_integrand_away_from_core(self, ness_cache):
        # exact Kerr integrand against the one-mode Gaussian Pi_u of the
        # state's own covariance, where one branch dominates: the Kerr term
        # linearized at alpha is H2 = (1/2) R^T G R with
        # G = [[d + u x, u y], [u y, d - u x]], d = delta + 2u|alpha|^2,
        # alpha^2 = x + i y
        p = kerr_params(1.0, 30)
        rho, _ = ness_cache(p)
        exact = pi_u_kerr(husimi_field(rho, auto_grid(rho)), p.u, p.N)
        alpha = mean_amplitude(rho) / math.sqrt(p.N)
        x, y = (alpha ** 2).real, (alpha ** 2).imag
        d = p.delta + 2.0 * p.u * abs(alpha) ** 2
        G = np.array([[d + p.u * x, p.u * y], [p.u * y, d - p.u * x]])
        sigma = CovarianceMatrix(quadrature_covariance(rho))
        linearized = gaussian_budget(sigma, G, (p.kappa,), alpha, p.N).Pi_u
        assert linearized == pytest.approx(exact, rel=1e-2)


def displaced_squeezed_thermal(nbar, xi, beta, dim):
    """D(beta) S(xi) rho_th(nbar) S(xi)^dag D(beta)^dag built in Fock space,
    with S(xi) = exp((conj(xi) a^2 - xi a^dag^2)/2), and its analytic
    quadrature covariance (nbar + 1/2) M^2, M the symmetric symplectic
    matrix of S(xi)."""
    a = annihilation(dim)
    ad = a.conj().T
    U = sla.expm(beta * ad - np.conj(beta) * a) @ sla.expm(
        0.5 * (np.conj(xi) * a @ a - xi * ad @ ad)
    )
    n = np.arange(dim)
    rho = U @ np.diag((nbar / (1.0 + nbar)) ** n / (1.0 + nbar)) @ U.conj().T
    r, theta = abs(xi), np.angle(xi)
    c, s = math.cosh(r), math.sinh(r)
    M = np.array(
        [[c - s * math.cos(theta), -s * math.sin(theta)],
         [-s * math.sin(theta), c + s * math.cos(theta)]]
    )
    return rho, (nbar + 0.5) * M @ M


class TestGaussianCrossCheck:
    @pytest.mark.parametrize(
        "nbar, xi, beta, dim",
        [
            (0.0, 0.0, 0.0, 12),
            (0.5, 0.0, 0.0, 40),
            (0.0, 0.2 + 0.4j, 0.0, 40),
            (0.2, 0.3, 1.5 + 0.5j, 60),
            (0.1, 0.25 * np.exp(0.7j), -0.8 + 0.6j, 60),
        ],
        ids=["vacuum", "thermal", "squeezed", "displaced-squeezed-thermal",
             "rotated-squeeze"],
    )
    def test_grid_matches_closed_form(self, nbar, xi, beta, dim):
        # the Husimi grid on a Fock-space state against the one-mode
        # Gaussian closed form with the analytic covariance
        rho, sigma = displaced_squeezed_thermal(nbar, xi, beta, dim)
        assert abs(rho[-1, -1]) < 1e-14
        rho = DensityMatrix(dim, 0.5 * (rho + rho.conj().T))
        kappa = 0.7
        grid = tensor_budget(rho, KerrParams(0.0, 1.0, kappa, 0.0, 1), auto_grid(rho))
        closed = gaussian_budget(
            CovarianceMatrix(sigma), np.zeros((2, 2)), (kappa,), complex(beta), 1
        )
        for name in ("S", "Phi_q", "Pi_d", "Phi_ext"):
            assert getattr(grid, name) == pytest.approx(
                getattr(closed, name), rel=1e-9, abs=1e-12
            ), name


class TestEntropyBudget:
    def test_undriven_budget_is_zero(self):
        p = KerrParams(0.0, 1e-12, 0.5, 0.0, 1)
        rho = vacuum(8)
        b = tensor_budget(rho, p, build_grid(0.0, 6.0, 64))
        assert b.Phi_ext == pytest.approx(0.0, abs=1e-12)
        assert b.Phi_q == pytest.approx(0.0, abs=1e-12)
        assert abs(b.Pi_u) < 1e-12 and b.Pi_d < 1e-12
        assert b.Pi_ext is b.Phi_ext or b.Pi_ext == b.Phi_ext

    def test_balance_at_ness(self, ness_cache):
        p = kerr_params(0.9, 10)
        rho, _ = ness_cache(p)
        b = tensor_budget(rho, p, auto_grid(rho))
        assert b.balance_rel < 1e-2
        assert b.Pi_d >= 0
        assert b.Pi_ext == b.Phi_ext
        assert b.dSdt == pytest.approx(b.Pi_u + b.Pi_d - b.Phi_q)

    def test_wehrl_bound_and_majorization(self, ness_cache):
        states = [
            vacuum(10),
            thermal(1.0, 40),
            coherent(1.5, 40),
            ness_cache(kerr_params(0.9, 5))[0],
            ness_cache(kerr_params(0.95, 10))[0],
        ]
        for rho in states:
            f = husimi_field(rho, auto_grid(rho))
            s_wehrl = wehrl_entropy(f)
            assert s_wehrl >= WEHRL_VACUUM - 1e-6
            assert s_wehrl >= von_neumann_entropy(rho) - 1e-6

    def test_entropy_rate_matches_trajectory(self):
        # d/dt of the Wehrl entropy along a relaxing state equals Pi - Phi
        p = kerr_params(0.9, 3)
        from wehrlflux.kerr_state import recommended_cutoff

        n = recommended_cutoff(p)
        L = build_kerr_liouvillian(p, n)
        vac = vacuum(n)
        h = 0.02

        def entropy_at(t):
            rho = evolve(vac, L, t)
            return wehrl_entropy(husimi_field(rho, auto_grid(rho, 128)))

        fd = (entropy_at(2.0 + h) - entropy_at(2.0 - h)) / (2 * h)
        rho_mid = evolve(vac, L, 2.0)
        b = tensor_budget(rho_mid, p, auto_grid(rho_mid))
        assert fd == pytest.approx(b.dSdt, rel=1e-2)
