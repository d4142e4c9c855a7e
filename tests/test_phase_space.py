import math

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import kerr_params, random_density_matrix
from wehrlflux.errors import DimensionError, MassDeficitError, SingularExpansionError
from wehrlflux.fock_algebra import (
    DensityMatrix,
    annihilation,
    coherent_components,
    mean_amplitude,
    mean_photon_number,
    von_neumann_entropy,
)
from wehrlflux.liouvillian import KerrParams, evolve, max_stable_dt, build_kerr_liouvillian
from wehrlflux.phase_space import (
    NormalOrderedHamiltonian,
    _coherent_matrix,
    auto_grid,
    build_grid,
    entropy_budget,
    entropy_flux,
    flux_split,
    husimi_field,
    pi_d,
    pi_u_kerr,
    pi_u_leading,
    wehrl_entropy,
    xi_coefficients,
)

WEHRL_VACUUM = 1.0 + math.log(math.pi)


def husimi_at(rho: DensityMatrix, mu: complex) -> float:
    """Independent pointwise Husimi evaluation used as the test oracle."""
    c = coherent_components(mu, rho.dim)
    return float((c.conj() @ rho.entries @ c).real) / math.pi


def quadrature_covariance(rho: DensityMatrix) -> np.ndarray:
    """2x2 symmetrized covariance of (q, p) for a centered state."""
    a = annihilation(rho.dim).toarray()
    q = (a + a.conj().T) / math.sqrt(2.0)
    p = 1j * (a.conj().T - a) / math.sqrt(2.0)
    out = np.empty((2, 2))
    for i, A in enumerate((q, p)):
        for j, B in enumerate((q, p)):
            out[i, j] = 0.5 * np.trace(rho.entries @ (A @ B + B @ A)).real
    return out


def squeezed_vacuum(r: float, dim: int = 48) -> DensityMatrix:
    a = annihilation(dim).toarray()
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
        f = husimi_field(DensityMatrix.vacuum(10), g)
        assert abs(f.mass - 1.0) < 1e-10

    def test_displaced_grid_mass_translation_invariance(self):
        mu0 = 1.5 + 0.5j
        rho = DensityMatrix.coherent(mu0, 30)
        f = husimi_field(rho, build_grid(mu0, 6.0, 64))
        assert abs(f.mass - 1.0) < 1e-10


class TestHusimiField:
    def test_vacuum_values(self):
        for points in (64, 65):  # 65 puts a node at mu = 0
            g = build_grid(0.0, 6.0, points)
            f = husimi_field(DensityMatrix.vacuum(12), g)
            expected = np.exp(-np.abs(g.nodes) ** 2) / math.pi
            assert np.max(np.abs(f.Q - expected)) < 1e-12

    @pytest.mark.parametrize("dim", [60, 149, 400])
    def test_coherent_matrix_matches_components(self, dim):
        # the rescaled recurrence against the log-magnitude oracle, entry
        # by entry, out to |mu| = 45 where exp(-|mu|^2/2) alone underflows
        rng = np.random.default_rng(dim)
        radii = np.concatenate([[0.0], rng.uniform(0.0, 45.0, 199), [45.0]])
        mu = radii * np.exp(2j * np.pi * rng.uniform(size=radii.size))
        C = _coherent_matrix(mu, dim)
        assert np.all(np.isfinite(C))
        for k, m in enumerate(mu):
            ref = coherent_components(m, dim)
            big = np.abs(ref) > 1e-290
            assert np.all(np.abs(C[big, k] - ref[big]) <= 1e-12 * np.abs(ref[big]))

    def test_coherent_values_and_derivative_identity(self):
        alpha = 1.2 - 0.8j
        rho = DensityMatrix.coherent(alpha, 40)
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
        # row shift runs out of rows.  The components come from the field's
        # own coherent matrix: at n ~ 90 the roundoff of two independent
        # component evaluations already differs by ~5e-13 of max|dQ|.
        rng = np.random.default_rng(dim)
        rho = random_density_matrix(dim, rng).entries
        if dim == 90:
            rho = 0.5 * rho
            rho[-1, -1] += 0.5
        rho = DensityMatrix(dim, rho)
        f = husimi_field(rho, build_grid(0.0, 16.0, 192))
        idx = rng.choice(f.grid.nodes.size, size=200, replace=False)
        mu = f.grid.nodes[idx]
        C = _coherent_matrix(mu, dim)
        a_rho = annihilation(dim).toarray() @ rho.entries
        explicit = np.einsum("nk,nk->k", C.conj(), a_rho @ C) / math.pi
        expected = -mu * f.Q[idx] + explicit
        scale = np.max(np.abs(f.dQ_dmubar))
        assert np.max(np.abs(f.dQ_dmubar[idx] - expected)) < 1e-13 * scale

    def test_conjugate_derivative_invariant(self):
        rho = DensityMatrix.thermal(0.5, 30)
        f = husimi_field(rho, auto_grid(rho, points_per_axis=64))
        assert np.array_equal(f.dQ_dmu, f.dQ_dmubar.conj())

    def test_thermal_values_and_mass(self):
        rho = DensityMatrix.thermal(1.0, 60)
        g = build_grid(0.0, 6.0 * math.sqrt(2.0), 128)
        f = husimi_field(rho, g)
        expected = np.exp(-np.abs(g.nodes) ** 2 / 2.0) / (2.0 * math.pi)
        assert np.max(np.abs(f.Q - expected)) < 1e-10
        assert abs(f.mass - 1.0) < 1e-8

    def test_mass_deficit_error(self):
        rho = DensityMatrix.coherent(3.0, 40)
        with pytest.raises(MassDeficitError):
            husimi_field(rho, build_grid(0.0, 2.0, 64))


class TestWehrlEntropy:
    def test_vacuum(self):
        f = husimi_field(DensityMatrix.vacuum(10), build_grid(0.0, 6.0, 128))
        assert wehrl_entropy(f) == pytest.approx(WEHRL_VACUUM, abs=1e-6)

    def test_displacement_invariance(self):
        alpha = 2.0
        rho = DensityMatrix.coherent(alpha, 40)
        f = husimi_field(rho, build_grid(alpha, 6.0, 128))
        assert wehrl_entropy(f) == pytest.approx(WEHRL_VACUUM, abs=1e-6)

    def test_thermal(self):
        nbar = 1.0
        rho = DensityMatrix.thermal(nbar, 60)
        f = husimi_field(rho, build_grid(0.0, 8.5, 128))
        assert wehrl_entropy(f) == pytest.approx(
            WEHRL_VACUUM + math.log(1.0 + nbar), abs=1e-6
        )


class TestFlux:
    def test_vacuum_zero(self):
        assert entropy_flux(DensityMatrix.vacuum(8), 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_coherent_flux(self):
        # steady coherent amplitude E/kappa = 2: Phi = 2 kappa |alpha|^2 = 4
        rho = DensityMatrix.coherent(2.0, 40)
        assert entropy_flux(rho, 0.5) == pytest.approx(4.0, rel=1e-10)

    def test_thermal_flux(self):
        rho = DensityMatrix.thermal(2.0, 80)
        assert entropy_flux(rho, 0.5) == pytest.approx(2.0, rel=1e-10)

    def test_split_exact_and_coherent(self):
        rho = DensityMatrix.coherent(1.3, 40)
        phi_ext, phi_q = flux_split(rho, 0.5, 4)
        assert phi_ext + phi_q == pytest.approx(entropy_flux(rho, 0.5), abs=1e-13)
        assert phi_q < 1e-10

    def test_split_vacuum(self):
        assert flux_split(DensityMatrix.vacuum(8), 0.5, 2) == (0.0, 0.0)

    def test_kerr_variance_peaks_near_transition(self, ness_cache):
        rho_far, _ = ness_cache(kerr_params(0.75, 10))
        rho_near, _ = ness_cache(kerr_params(0.95, 10))
        _, phi_q_far = flux_split(rho_far, 0.5, 10)
        _, phi_q_near = flux_split(rho_near, 0.5, 10)
        assert phi_q_near > 10.0 * phi_q_far


class TestDissipativeProduction:
    def test_vacuum_current_vanishes(self):
        f = husimi_field(DensityMatrix.vacuum(10), build_grid(0.0, 6.0, 64))
        assert pi_d(f, 0.5, 0.0, 1) < 1e-20

    def test_coherent_displaced_current_vanishes(self):
        alpha = 1.5
        rho = DensityMatrix.coherent(alpha, 40)
        f = husimi_field(rho, build_grid(alpha, 6.0, 96))
        assert pi_d(f, 0.5, alpha, 1) < 1e-16

    @pytest.mark.parametrize("state", ["thermal", "squeezed"])
    def test_gaussian_closed_form(self, state):
        # closed form for a centered Gaussian: kappa * sum_quadratures of
        # (Sigma - 2I + Sigma^{-1}), with Sigma the Husimi covariance
        kappa = 0.7
        if state == "thermal":
            rho = DensityMatrix.thermal(1.0, 60)
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
        rho = DensityMatrix.thermal(nbar, 60)
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
        f = husimi_field(DensityMatrix.thermal(0.5, 30), build_grid(0.0, 8.0, 64))
        assert pi_u_kerr(f, 0.0, 1) == 0.0

    def test_coherent_state_cancellation(self):
        alpha = 1.1 + 0.4j
        rho = DensityMatrix.coherent(alpha, 40)
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


class TestXiCoefficients:
    def test_kerr_squeezing_constant(self):
        H = NormalOrderedHamiltonian.kerr(-2.0, 1.0)
        xi = xi_coefficients(H, 1.0 + 0.0j)
        assert xi.xi2 == pytest.approx(-1j)

    def test_against_symbolic_enumeration(self):
        import sympy

        alpha_val = 0.8 + 0.3j
        coeffs = {(1, 1): -2.0, (2, 2): 0.5, (1, 0): 0.25j, (0, 1): -0.25j}
        H = NormalOrderedHamiltonian(coeffs)
        a = sympy.Symbol("a")
        ab = sympy.Symbol("ab")
        xi1 = xi2 = xi11 = sympy.Integer(0)
        for (r, s), h in coeffs.items():
            if s >= 1:
                xi1 += h * a ** (s - 1) * ab ** r * s
            if s >= 2:
                xi2 += h * a ** (s - 2) * ab ** r * s * (s - 1)
            if r >= 1 and s >= 1:
                xi11 += h * a ** (s - 1) * ab ** (r - 1) * r * s
        subs = {a: alpha_val, ab: complex(alpha_val).conjugate()}
        expected = [complex(-1j * expr.subs(subs)) for expr in (xi1, xi2, xi11)]
        xi = xi_coefficients(H, alpha_val)
        assert xi.xi1 == pytest.approx(expected[0], abs=1e-12)
        assert xi.xi2 == pytest.approx(expected[1], abs=1e-12)
        assert xi.xi11 == pytest.approx(expected[2], abs=1e-12)

    def test_harmonic_has_no_squeezing(self):
        H = NormalOrderedHamiltonian({(1, 1): 1.0})
        xi = xi_coefficients(H, 0.5 + 0.5j)
        assert xi.xi2 == 0
        # purely imaginary rotation constant for diagonal Hamiltonians
        assert abs(xi.xi11.real) < 1e-15

    def test_pure_drive(self):
        H = NormalOrderedHamiltonian({(1, 0): 1j, (0, 1): -1j})
        xi = xi_coefficients(H, 0.3)
        assert xi.xi2 == 0 and xi.xi11 == 0
        assert xi.xi1 != 0

    def test_singular_expansion_guard(self):
        # valid ladder powers never produce a negative power with a nonzero
        # multiplier, so the guard is exercised at the helper level
        from wehrlflux.phase_space import _term

        with pytest.raises(SingularExpansionError):
            _term(1.0, 0.0, -1, 1.0, 0)
        assert _term(0.0, 0.0, -1, 1.0, 0) == 0.0

    def test_vacuum_expansion_point_is_regular(self):
        H = NormalOrderedHamiltonian({(1, 1): -2.0, (2, 2): 0.5})
        xi = xi_coefficients(H, 0.0)
        # drift and squeezing vanish at the origin; the rotation constant
        # keeps the bare detuning contribution -i h_11
        assert xi.xi1 == 0 and xi.xi2 == 0
        assert xi.xi11 == pytest.approx(2j)


class TestLeadingOrderUnitary:
    def test_zero_squeezing_constant(self):
        from wehrlflux.phase_space import UnitaryGeneratorCoefficients

        f = husimi_field(DensityMatrix.thermal(0.5, 30), build_grid(0.0, 8.0, 64))
        xi = UnitaryGeneratorCoefficients(1.0 + 1j, 0.0, -0.5j)
        assert pi_u_leading(f, xi) == 0.0

    def test_gaussian_closed_form(self):
        from wehrlflux.phase_space import UnitaryGeneratorCoefficients

        rho = squeezed_vacuum(0.4)
        Sigma = quadrature_covariance(rho) + 0.5 * np.eye(2)
        P = np.linalg.inv(Sigma)
        xi2 = 0.3 - 0.7j
        closed = (xi2 * 0.5 * (P[0, 0] - P[1, 1] + 2j * P[0, 1])).real
        f = husimi_field(rho, auto_grid(rho, points_per_axis=128))
        quad = pi_u_leading(f, UnitaryGeneratorCoefficients(0.0, xi2, 0.0))
        assert quad == pytest.approx(closed, rel=1e-4)

    def test_matches_exact_integrand_away_from_core(self, ness_cache):
        # leading order vs exact Kerr integrand where one branch dominates
        p = kerr_params(1.0, 30)
        rho, _ = ness_cache(p)
        f = husimi_field(rho, auto_grid(rho))
        alpha = mean_amplitude(rho) / math.sqrt(p.N)
        xi = xi_coefficients(
            NormalOrderedHamiltonian.kerr(p.delta, p.u, p.eps), alpha
        )
        exact = pi_u_kerr(f, p.u, p.N)
        leading = pi_u_leading(f, xi)
        assert leading == pytest.approx(exact, rel=0.10)


class TestEntropyBudget:
    def test_undriven_budget_is_zero(self):
        p = KerrParams(0.0, 1e-12, 0.5, 0.0, 1)
        rho = DensityMatrix.vacuum(8)
        b = entropy_budget(rho, p, build_grid(0.0, 6.0, 64))
        assert b.Phi_ext == pytest.approx(0.0, abs=1e-12)
        assert b.Phi_q == pytest.approx(0.0, abs=1e-12)
        assert abs(b.Pi_u) < 1e-12 and b.Pi_d < 1e-12
        assert b.Pi_ext is b.Phi_ext or b.Pi_ext == b.Phi_ext

    def test_balance_at_ness(self, ness_cache):
        p = kerr_params(0.9, 10)
        rho, _ = ness_cache(p)
        b = entropy_budget(rho, p, auto_grid(rho))
        assert b.balance_rel < 1e-2
        assert b.Pi_d >= 0
        assert b.Pi_ext == b.Phi_ext
        assert b.dSdt == pytest.approx(b.Pi_u + b.Pi_d - b.Phi_q)

    def test_wehrl_bound_and_majorization(self, ness_cache):
        states = [
            DensityMatrix.vacuum(10),
            DensityMatrix.thermal(1.0, 40),
            DensityMatrix.coherent(1.5, 40),
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
        from wehrlflux.kerr_model import recommended_cutoff

        n = recommended_cutoff(p)
        L = build_kerr_liouvillian(p, n)
        dt = max_stable_dt(L)
        vac = DensityMatrix.vacuum(n)
        h = 0.02

        def entropy_at(t):
            rho = evolve(vac, L, t, dt)
            return wehrl_entropy(husimi_field(rho, auto_grid(rho, 128)))

        fd = (entropy_at(2.0 + h) - entropy_at(2.0 - h)) / (2 * h)
        rho_mid = evolve(vac, L, 2.0, dt)
        b = entropy_budget(rho_mid, p, auto_grid(rho_mid))
        assert fd == pytest.approx(b.dSdt, rel=1e-2)
