import math

import numpy as np
import pytest

from conftest import random_density_matrix
from wehrlflux.errors import DimensionError, StateValidationError
from wehrlflux.fock_algebra import (
    DensityMatrix,
    annihilation,
    coherent_components,
    mean_amplitude,
    mean_photon_number,
    trace_distance,
    unvectorize,
    vectorize,
    von_neumann_entropy,
)


class TestLadderOperators:
    def test_annihilation_entries(self):
        a = annihilation(3).toarray()
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = math.sqrt(2.0)
        assert np.allclose(a, expected)

    def test_vacuum_annihilated(self):
        a = annihilation(6).toarray()
        vac = np.zeros(6)
        vac[0] = 1.0
        assert np.allclose(a @ vac, 0.0)

    def test_number_operator_spectrum(self):
        n_max = 9
        a = annihilation(n_max).toarray()
        num = a.conj().T @ a
        assert np.allclose(np.sort(np.linalg.eigvalsh(num)), np.arange(n_max))
        assert np.allclose(num, np.diag(np.arange(n_max)))

    def test_invalid_dimension(self):
        with pytest.raises(DimensionError):
            annihilation(1)

    @pytest.mark.parametrize("n_max", [4, 16, 65, 90])
    def test_commutator_defect_confined_to_top_level(self, n_max):
        a = annihilation(n_max).toarray()
        ad = a.conj().T
        comm = a @ ad - ad @ a
        defect = comm - np.eye(n_max)
        # truncation pushes the whole defect into the top Fock level
        assert abs(defect[n_max - 1, n_max - 1] + n_max) < 1e-12
        defect[n_max - 1, n_max - 1] = 0.0
        assert np.max(np.abs(defect)) < 1e-12


class TestCoherentStates:
    def test_vacuum_amplitude(self):
        c = coherent_components(0.0, 8)
        assert c[0] == 1.0
        assert np.allclose(c[1:], 0.0)

    def test_array_of_nodes(self):
        # shape (dim,) + shape(mu), each column the node's own vector (to
        # roundoff: the phase's powers may round differently for one node
        # and for many), and mu = 0 the vacuum column exactly, without a
        # floating-point warning
        mu = np.array([[0.0, 0.7 - 0.4j, 2.5j], [-1.0, 3.0, 1e-3 + 1e-3j]])
        C = coherent_components(mu, 12)
        assert C.shape == (12, 2, 3)
        for idx in np.ndindex(mu.shape):
            column = C[(slice(None),) + idx]
            single = coherent_components(mu[idx], 12)
            assert np.all(np.abs(column - single) <= 1e-14 * np.abs(single))
        vacuum = np.zeros(12, dtype=complex)
        vacuum[0] = 1.0
        assert np.array_equal(C[:, 0, 0], vacuum)
        assert np.array_equal(coherent_components(0.0, 12), vacuum)
        assert coherent_components(0.7 - 0.4j, 12).shape == (12,)

    def test_components_match_direct_formula(self):
        mu = 0.7 - 0.4j
        c = coherent_components(mu, 12)
        direct = np.array(
            [
                math.exp(-abs(mu) ** 2 / 2) * mu ** n / math.sqrt(math.factorial(n))
                for n in range(12)
            ]
        )
        assert np.max(np.abs(c - direct)) < 1e-14

    def test_overlap_against_analytic(self):
        # |<mu|nu>|^2 -> exp(-|mu-nu|^2); partial-sum evaluation at n_max=40
        mu, nu = 1.0, 0.0
        c_mu = coherent_components(mu, 40)
        c_nu = coherent_components(nu, 40)
        overlap = abs(np.vdot(c_mu, c_nu)) ** 2
        assert abs(overlap - math.exp(-abs(mu - nu) ** 2)) < 1e-10

    def test_mean_photon_number(self):
        mu = 1.5
        rho = DensityMatrix.coherent(mu, 40)
        n = mean_photon_number(rho)
        assert abs(n - abs(mu) ** 2) < 1e-8

    @pytest.mark.parametrize("mu", [0.5, 1.0 + 1.0j, 2.2])
    def test_leakage_monotone_in_cutoff(self, mu):
        # weight lost to the truncated Fock tail, 1 - ||c||^2
        leaks = [
            1.0 - np.vdot(c, c).real
            for c in (coherent_components(mu, n) for n in (8, 12, 16, 24, 40))
        ]
        assert all(l1 >= l2 - 1e-16 for l1, l2 in zip(leaks, leaks[1:]))
        assert leaks[-1] < 1e-10

    def test_large_amplitude_is_finite(self):
        # log-gamma path: no overflow far beyond n = 170
        c = coherent_components(13.0, 400)
        assert np.all(np.isfinite(c.real)) and np.all(np.isfinite(c.imag))
        assert abs(np.vdot(c, c).real - 1.0) < 1e-12


class TestDensityMatrix:
    def test_vacuum_and_fock(self):
        vac = DensityMatrix.vacuum(5)
        assert vac.entries[0, 0] == 1.0
        f2 = DensityMatrix.fock(5, 2)
        assert mean_photon_number(f2) == pytest.approx(2.0)

    def test_thermal_occupation(self):
        rho = DensityMatrix.thermal(1.0, 60)
        assert mean_photon_number(rho) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-3
        m /= np.trace(m)
        with pytest.raises(StateValidationError):
            DensityMatrix(4, m)

    def test_rejects_bad_trace(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(4, 2.0 * np.eye(4, dtype=complex) / 4)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateValidationError):
            DensityMatrix(4, m)


class TestExpectation:
    def test_vacuum_photon_number(self):
        assert mean_photon_number(DensityMatrix.vacuum(6)) == 0

    def test_coherent_eigenvalue_property(self):
        rho = DensityMatrix.coherent(1.0, 40)
        val = mean_amplitude(rho)
        assert abs(val - 1.0) < 1e-10

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(4)
        assert mean_photon_number(rho) == pytest.approx(1.5)

    @pytest.mark.parametrize("dim", [10, 90])
    def test_diagonal_moments_match_operator_traces(self, dim):
        rho = random_density_matrix(dim, np.random.default_rng(dim))
        a = annihilation(dim).toarray()
        n_op = a.conj().T @ a
        tol = 1e-13 * dim
        assert abs(mean_photon_number(rho) - np.trace(rho.entries @ n_op)) < tol
        assert abs(mean_amplitude(rho) - np.trace(rho.entries @ a)) < tol


class TestHelpers:
    def test_vectorize_round_trip_column_stacking(self):
        m = np.arange(9, dtype=complex).reshape(3, 3)
        v = vectorize(m)
        # column stacking: first entries run down the first column
        assert np.allclose(v[:3], m[:, 0])
        assert np.allclose(unvectorize(v, 3), m)

    def test_von_neumann_entropy(self):
        rho = DensityMatrix.maximally_mixed(4)
        assert von_neumann_entropy(rho) == pytest.approx(math.log(4))
        assert von_neumann_entropy(DensityMatrix.vacuum(4)) == pytest.approx(0.0, abs=1e-12)

    def test_trace_distance(self):
        a = DensityMatrix.vacuum(4)
        b = DensityMatrix.fock(4, 1)
        assert trace_distance(a, b) == pytest.approx(1.0)
        assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
