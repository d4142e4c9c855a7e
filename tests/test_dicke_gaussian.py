import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings, strategies as st

from wehrlflux import dicke_gaussian
from wehrlflux.errors import (
    DimensionError,
    InvalidCovarianceError,
    SingularBranchError,
    SolverConvergenceError,
    UnstableSystemError,
)
from wehrlflux.dicke_gaussian import (
    HURWITZ_TOL,
    CovarianceMatrix,
    DickeParams,
    MeanFieldState,
    critical_coupling,
    dicke_point,
    drift_diffusion,
    estimator_means,
    fit_power_law,
    gaussian_budget,
    hamiltonian_quadratic_form,
    hp_coefficients,
    kink_detector,
    mc_gaussian_budget,
    mean_field_fixed_point,
    solve_lyapunov,
    symplectic_form,
    unitary_diffusion,
)

FIG3 = dict(omega0=0.005, omega=0.01, kappa=1.0, gamma=1e-3)


def fig3_params(lam):
    return DickeParams(FIG3["omega0"], FIG3["omega"], FIG3["kappa"], lam, FIG3["gamma"])


LAMBDA_C = critical_coupling(fig3_params(0.0))


def dicke_model(p):
    """(hp, G, losses) of the bosonized Dicke fluctuations at p."""
    hp = hp_coefficients(mean_field_fixed_point(p), p)
    return hp, hamiltonian_quadratic_form(hp, p), (p.gamma, p.kappa)


def dicke_drift(p):
    _, G, losses = dicke_model(p)
    return drift_diffusion(G, losses)


class TestParams:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega0", "omega", "kappa", "lam", "gamma"])
    def test_non_finite_rejected(self, name, bad):
        # comparisons are false for NaN, so only an explicit finiteness
        # check stops it before the Lyapunov solve
        values = dict(FIG3, lam=0.5 * LAMBDA_C)
        values[name] = bad
        with pytest.raises(ValueError, match="finite"):
            DickeParams(**values)

    def test_weak_stabilizer_warning_names_the_caller(self):
        # the warning points at this line, not into the generated __init__
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            DickeParams(0.005, 0.01, 1.0, 0.0, 0.5)
        [w] = caught
        assert issubclass(w.category, UserWarning)
        assert "is not small against kappa" in str(w.message)
        assert w.filename == __file__


class TestCriticalCoupling:
    def test_reference_value_against_high_precision(self):
        import mpmath

        mpmath.mp.dps = 40
        expected = 0.5 * mpmath.sqrt(
            (mpmath.mpf("0.005") / mpmath.mpf("0.01"))
            * (mpmath.mpf(1) ** 2 + mpmath.mpf("0.01") ** 2)
        )
        assert LAMBDA_C == pytest.approx(float(expected), abs=1e-15)
        assert LAMBDA_C == pytest.approx(0.3535710678, abs=1e-9)

    def test_closed_system_limit(self):
        # kappa -> 0 with omega0 = omega: lambda_c -> omega / 2
        p = DickeParams(0.01, 0.01, 1e-12, 0.0, 1e-15)
        assert critical_coupling(p) == pytest.approx(0.005, rel=1e-12)

    def test_sqrt_scaling_in_spin_splitting(self):
        p1 = fig3_params(0.0)
        p2 = DickeParams(0.010, 0.01, 1.0, 0.0, 1e-3)
        assert critical_coupling(p2) == pytest.approx(
            math.sqrt(2.0) * critical_coupling(p1), rel=1e-12
        )


class TestMeanField:
    def test_normal_phase(self):
        mf = mean_field_fixed_point(fig3_params(0.5 * LAMBDA_C))
        assert mf.beta == 0.0 and mf.alpha == 0 and mf.w == -0.5

    def test_continuous_onset(self):
        mf = mean_field_fixed_point(fig3_params(LAMBDA_C))
        assert mf.beta == 0.0

    def test_ordered_branch_analytic_point(self):
        # at lam = sqrt(2) lam_c: beta = sqrt(3)/4, w = -1/4
        mf = mean_field_fixed_point(fig3_params(math.sqrt(2.0) * LAMBDA_C))
        assert mf.beta == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-12)
        assert mf.w == pytest.approx(-0.25, abs=1e-12)

    @pytest.mark.parametrize("ratio", [0.3, 0.9, 1.0, 1.1, 1.7, 3.0])
    def test_constraint_and_residuals(self, ratio):
        p = fig3_params(ratio * LAMBDA_C)
        mf = mean_field_fixed_point(p)
        assert mf.w ** 2 + abs(mf.beta) ** 2 == pytest.approx(0.25, abs=1e-12)
        assert max(mf.residuals(p)) < 1e-12
        assert mf.w <= 0

    def test_residuals_check_spin_length(self):
        # in the normal phase alpha = beta = 0, so only the spin-length
        # constraint w^2 + beta^2 = 1/4 sees a perturbed w
        p = fig3_params(0.5 * LAMBDA_C)
        mf = mean_field_fixed_point(p)
        bent = dataclasses.replace(mf, w=mf.w + 1e-6)
        assert max(bent.residuals(p)) > 1e-12

    def test_strong_coupling_point(self):
        # lam = 200 lam_c puts |alpha| near 100: the alpha equation's terms
        # are ~kappa |alpha| = 1e5, so its residual is ~1e-11 of roundoff
        # alone, while the budget still closes and passes every check
        p = DickeParams(1.0, 1.0, 1000.0, 1e5, 1e-3)
        budget, _, _, mf = dicke_point(p)
        assert p.lam == pytest.approx(200.0 * critical_coupling(p), rel=1e-6)
        assert abs(mf.alpha) == pytest.approx(100.0, rel=1e-6)
        r_alpha = mf.residuals(p)[0]
        assert 1e-12 < r_alpha < 1e-15 * p.kappa * abs(mf.alpha)
        assert budget.balance_rel < 1e-8

    def test_order_parameter_slope_jump(self):
        # beta is continuous at lam_c but d(beta^2)/d lam jumps to 1/lam_c
        h = 1e-7
        b_above = mean_field_fixed_point(fig3_params(LAMBDA_C + h)).beta
        assert b_above ** 2 == pytest.approx(h / LAMBDA_C, rel=1e-4)
        assert mean_field_fixed_point(fig3_params(LAMBDA_C - h)).beta == 0.0


class TestBosonization:
    def test_normal_phase_coefficients(self):
        p = fig3_params(0.7 * LAMBDA_C)
        hp = hp_coefficients(mean_field_fixed_point(p), p)
        assert hp.beta_tilde_minus == 0.0
        assert hp.beta_tilde_plus == 1.0
        assert hp.omega0_tilde == p.omega0
        assert hp.lambda_tilde == p.lam
        assert hp.zeta == 0.0

    @pytest.mark.parametrize("ratio", [1.05, math.sqrt(2.0), 2.5])
    def test_identities(self, ratio):
        p = fig3_params(ratio * LAMBDA_C)
        mf = mean_field_fixed_point(p)
        hp = hp_coefficients(mf, p)
        assert hp.beta_tilde_minus ** 2 + hp.beta_tilde_plus ** 2 == pytest.approx(
            1.0, abs=1e-12
        )
        assert hp.beta_tilde_minus * hp.beta_tilde_plus == pytest.approx(
            mf.beta, abs=1e-12
        )

    def test_spin_splitting_renormalizes_up(self):
        p = fig3_params(1.3 * LAMBDA_C)
        mf = mean_field_fixed_point(p)
        hp = hp_coefficients(mf, p)
        assert 2.0 * mf.alpha.real < 0
        assert hp.omega0_tilde > p.omega0

    def test_fully_inverted_spin_rejected(self):
        p = fig3_params(1.3 * LAMBDA_C)
        with pytest.raises(SingularBranchError):
            hp_coefficients(MeanFieldState(alpha=0.0, beta=0.5, w=0.0), p)


class TestDriftDiffusion:
    def test_matrix_layout(self):
        p = fig3_params(0.8 * LAMBDA_C)
        hp, G, losses = dicke_model(p)
        A, D = drift_diffusion(G, losses)
        wt0, lt, zeta = hp.omega0_tilde, hp.lambda_tilde, hp.zeta
        expected = np.array(
            [[-p.gamma, wt0, 0, 0],
             [4 * zeta - wt0, -p.gamma, -2 * lt, 0],
             [0, 0, -p.kappa, p.omega],
             [-2 * lt, 0, -p.omega, -p.kappa]]
        )
        assert np.allclose(A, expected)
        assert np.allclose(D, np.diag([p.gamma, p.gamma, p.kappa, p.kappa]))

    def test_decoupled_normal_phase_blocks(self):
        A, _ = dicke_drift(DickeParams(0.005, 0.01, 1.0, 1e-12, 1e-3))
        assert abs(A[1, 2]) < 1e-11 and abs(A[3, 0]) < 1e-11

    def test_stable_below_threshold(self):
        A, _ = dicke_drift(fig3_params(0.9 * LAMBDA_C))
        assert np.linalg.eigvals(A).real.max() < 0

    def test_soft_mode_closes_at_critical_coupling(self):
        # with gamma -> 0 the least-damped drift eigenvalue approaches zero
        # exactly at the critical coupling
        decay = {}
        for ratio in (0.9, 0.95, 1.0, 1.05, 1.1):
            A, _ = dicke_drift(DickeParams(0.005, 0.01, 1.0, ratio * LAMBDA_C, 1e-9))
            decay[ratio] = -np.linalg.eigvals(A).real.max()
        assert min(decay, key=decay.get) == 1.0
        assert decay[1.0] < 1e-6


class TestLyapunov:
    def test_decoupled_vacuum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            p = DickeParams(0.005, 0.01, 1.0, 0.0, 1.0)  # gamma = kappa
        sigma = solve_lyapunov(*dicke_drift(p))
        assert np.allclose(sigma.sigma, 0.5 * np.eye(4), atol=1e-12)

    def test_random_stable_system_contract(self):
        # random two-mode models (G, losses) whose drift decays at a rate of
        # at least 0.05, so sigma stays moderate and its residual small
        rng = np.random.default_rng(5)
        solved = 0
        while solved < 5:
            G = rng.normal(size=(4, 4))
            G = G + G.T
            A, D = drift_diffusion(G, rng.uniform(0.05, 2.0, size=2))
            if np.linalg.eigvals(A).real.max() > -0.05:
                continue
            sigma = solve_lyapunov(A, D)
            res = np.linalg.norm(A @ sigma.sigma + sigma.sigma @ A.T + D)
            assert res < 1e-10
            solved += 1

    def test_unstable_system_rejected(self):
        A = np.diag([0.5, -1.0, -1.0, -1.0])
        with pytest.raises(UnstableSystemError) as err:
            solve_lyapunov(A, np.eye(4))
        assert err.value.eigenvalue.real == pytest.approx(0.5)

    def test_cavity_fluctuations_grow_toward_threshold(self):
        def photon_variance(ratio):
            b, sigma, *_ = dicke_point(fig3_params(ratio * LAMBDA_C))
            s = sigma.sigma
            return (s[2, 2] + s[3, 3] - 1.0) / 2.0

        v = [photon_variance(r) for r in (1.20, 1.10, 1.05)]
        assert v[0] < v[1] < v[2]
        assert v[2] > 10.0

    def test_covariance_symmetry_enforced(self):
        with pytest.raises(InvalidCovarianceError):
            CovarianceMatrix(np.arange(16.0).reshape(4, 4))

    def test_physicality_across_scan(self):
        for ratio in (0.5, 0.99, 1.01, 2.0):
            _, sigma, *_ = dicke_point(fig3_params(ratio * LAMBDA_C))
            assert sigma.validate_physical() > -1e-9

    def test_physicality_bound_scales_with_sigma(self):
        # at gamma = 1e-7, ||sigma||_2 reaches 1.9e13 near lam_c and the
        # eigenvalue roundoff (about 4e-3) passes the absolute 1e-9: an
        # absolute bound would reject lam_c itself (min eig -3.9e-4)
        params = dict(FIG3, gamma=1e-7)
        lam_c = critical_coupling(DickeParams(lam=0.0, **params))
        ratios = [1.0] + [1.0 + s * 10.0 ** -k for k in range(1, 13) for s in (-1, 1)]
        for ratio in ratios:
            dicke_point(DickeParams(lam=ratio * lam_c, **params))

    @pytest.mark.parametrize(
        "diag", [(0.3,) * 4, (0.1, 0.1, 1e6, 1e6)], ids=["below-vacuum", "beside-large-mode"]
    )
    def test_uncertainty_violation_raises(self, diag):
        # one mode below the vacuum 1/2 is caught even beside a large one
        with pytest.raises(InvalidCovarianceError, match="uncertainty violation"):
            CovarianceMatrix(np.diag(diag)).validate_physical()


class TestLyapunovRoutes:
    """The numpy Kronecker solve and the whitening against scipy's solvers,
    which the package no longer imports: two routes to the same matrices."""

    @pytest.mark.parametrize("ratio", [0.5, 0.99, 1.01, 1.5, None],
                             ids=["0.5", "0.99", "1.01", "1.5", "cavity"])
    def test_kronecker_solve_matches_bartels_stewart(self, ratio):
        if ratio is None:
            G, losses = np.zeros((2, 2)), (0.5,)
        else:
            _, G, losses = dicke_model(fig3_params(ratio * LAMBDA_C))
        A, D = drift_diffusion(G, losses)
        ours = solve_lyapunov(A, D).sigma
        theirs = sla.solve_continuous_lyapunov(A, -D)
        assert np.abs(ours - theirs).max() <= 1e-10 * np.abs(theirs).max()

    @pytest.mark.parametrize("ratio", [0.5, 0.99, 1.01, 1.5, None])
    def test_whitening_matches_triangular_solve(self, ratio):
        sigma, G, losses = quadratic_model(ratio)
        m = len(losses)
        L = np.linalg.cholesky(sigma.sigma + 0.5 * np.eye(2 * m))
        lin, weights, *_ = dicke_gaussian._whitened_estimators(L, G, losses)
        L_inv = sla.solve_triangular(L, np.eye(2 * m), lower=True)
        w = np.linalg.eigvalsh(L_inv @ unitary_diffusion(G) @ L_inv.T)
        scale = np.abs(L).max() + np.abs(L_inv).max()
        np.testing.assert_allclose(lin[:, :2 * m], (L - L_inv.T).T, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(lin[:, 2 * m:4 * m], L.T, rtol=0, atol=0)
        np.testing.assert_allclose(
            weights[1, 4 * m:], 0.5 * w, rtol=0, atol=1e-14 * np.abs(w).max()
        )


class TestGaussianBudget:
    def test_vacuum_budget(self):
        p = fig3_params(1e-12)
        _, G, losses = dicke_model(p)
        sigma = CovarianceMatrix(0.5 * np.eye(4))
        b = gaussian_budget(sigma, G, losses, mean_field_fixed_point(p).alpha, N=1)
        assert b.S == pytest.approx(2.0 * (1.0 + math.log(math.pi)), abs=1e-12)
        assert b.Phi_q == pytest.approx(0.0, abs=1e-12)
        assert b.Pi_d == pytest.approx(0.0, abs=1e-12)
        assert abs(b.Pi_u) < 1e-12

    def test_balance_identity_across_couplings(self):
        # Pi_u + Pi_d(a) + Pi_d(b) = Phi_q(a) + Phi_q(b) at the fixed point
        for ratio in np.linspace(0.2, 2.2, 20):
            if abs(ratio - 1.0) < 1e-9:
                continue
            b, *_ = dicke_point(fig3_params(float(ratio) * LAMBDA_C))
            assert b.balance_rel < 1e-6

    def test_normal_phase_has_no_mean_field_flux(self):
        b, *_ = dicke_point(fig3_params(0.8 * LAMBDA_C))
        assert b.Phi_ext == 0.0

    def test_ordered_phase_mean_field_flux(self):
        p = fig3_params(1.5 * LAMBDA_C)
        b, _, _, mf = dicke_point(p, N=7)
        assert b.Phi_ext == pytest.approx(2.0 * p.kappa * 7 * abs(mf.alpha) ** 2)
        assert b.Pi_ext == b.Phi_ext

    def test_unitary_production_equals_damping_trace_identity(self):
        # at the Lyapunov fixed point: Pi_u = tr(K) - tr(K Sigma^{-1})
        p = fig3_params(1.3 * LAMBDA_C)
        b, sigma, hp, mf = dicke_point(p)
        Sigma = sigma.sigma + 0.5 * np.eye(4)
        K = np.diag([p.gamma, p.gamma, p.kappa, p.kappa])
        identity_value = np.trace(K) - np.trace(K @ np.linalg.inv(Sigma))
        assert b.Pi_u == pytest.approx(identity_value, rel=1e-10)


@st.composite
def quadratic_models(draw):
    """Random (G, losses) with one or two modes."""
    m = draw(st.sampled_from([1, 2]))
    upper = draw(st.lists(st.floats(-2.0, 2.0), min_size=m * (2 * m + 1),
                          max_size=m * (2 * m + 1)))
    G = np.zeros((2 * m, 2 * m))
    G[np.triu_indices(2 * m)] = upper
    G = G + np.triu(G, 1).T
    losses = tuple(draw(st.lists(st.floats(0.05, 2.0), min_size=m, max_size=m)))
    return G, losses


def von_neumann_entropy(sigma):
    """S_vN of a Gaussian state from the symplectic eigenvalues of sigma."""
    m = len(sigma) // 2
    nu = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(m) @ sigma)))[::2]
    return sum(
        (v + 0.5) * math.log(v + 0.5) - (v - 0.5) * math.log(max(v - 0.5, 1e-300))
        for v in nu
    )


class TestQuadraticModels:
    @settings(derandomize=True, database=None, deadline=None)
    @given(quadratic_models())
    def test_budget_properties(self, model):
        G, losses = model
        A, D = drift_diffusion(G, losses)
        assume(np.linalg.eigvals(A).real.max() < -HURWITZ_TOL)
        sigma = solve_lyapunov(A, D)
        b = gaussian_budget(sigma, G, losses, 0.0, 1)
        m = len(losses)
        assert (b.Phi_q_b is None) == (m == 1)
        phi_q = b.Phi_q + (b.Phi_q_b or 0.0)
        # roundoff floor of Phi_q = k (Sigma_qq + Sigma_pp - 2) and of Pi_d,
        # which cancel to ~0 when G commutes with Omega and the vacuum is
        # the steady state; the entropy bounds are then met with equality
        roundoff = 1e-14 * sum(losses) * np.trace(sigma.sigma + 0.5 * np.eye(2 * m))
        gap = abs(b.Pi_u + b.Pi_d + (b.Pi_d_b or 0.0) - phi_q)
        assert gap <= 1e-9 * phi_q + roundoff
        assert b.S >= m * (1.0 + math.log(math.pi)) - 1e-12
        assert b.S >= von_neumann_entropy(sigma.sigma) - 1e-12
        assert b.Pi_d >= -roundoff and (b.Pi_d_b or 0.0) >= -roundoff

    @pytest.mark.parametrize("kappa", [1e-3, 0.25, 0.3, 0.5, 1.0, 7.1])
    def test_empty_cavity_is_exact_vacuum(self, kappa):
        G, losses = np.zeros((2, 2)), (kappa,)
        sigma = solve_lyapunov(*drift_diffusion(G, losses))
        assert np.array_equal(sigma.sigma, 0.5 * np.eye(2))
        b = gaussian_budget(sigma, G, losses, 1.0 / kappa, 1)
        assert b.S == 1.0 + math.log(math.pi)
        assert b.Phi_ext == 2.0 / kappa
        assert b.Phi_q == b.Pi_d == b.Pi_u == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            drift_diffusion(np.zeros((4, 4)), (1.0,))
        with pytest.raises(DimensionError):
            gaussian_budget(
                CovarianceMatrix(0.5 * np.eye(4)), np.zeros((2, 2)), (1.0,), 0.0, 1
            )

    def test_asymmetric_form_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            drift_diffusion(np.array([[0.0, 1.0], [0.0, 0.0]]), (1.0,))


def r_coordinate_means(sigma, G, losses, samples, seed):
    """Sample means of the oracle's integrands in r = chol(Sigma) z.

    The reference for the whitened ``mc_gaussian_budget``, on the same
    Philox draws z: -ln Q and the rates as quadratic forms in r, with
    P = Sigma^{-1}, M = I - P and C = P D_u P.
    """
    m = len(losses)
    k = np.asarray(losses, dtype=float)
    Sigma = sigma.sigma + 0.5 * np.eye(2 * m)
    P = np.linalg.inv(Sigma)
    M = np.eye(2 * m) - P
    C = P @ unitary_diffusion(G) @ P
    _, logdet = np.linalg.slogdet(Sigma)
    log_norm = m * math.log(2.0) - m * math.log(2.0 * math.pi) - 0.5 * logdet
    rng = np.random.Generator(np.random.Philox(key=seed))
    r = rng.standard_normal((samples, 2 * m)) @ np.linalg.cholesky(Sigma).T
    mr = r @ M.T
    pid = k * (mr[:, 0::2] ** 2 + mr[:, 1::2] ** 2)
    phq = k * (r[:, 0::2] ** 2 + r[:, 1::2] ** 2 - 2.0)
    means = {
        "S": np.mean(0.5 * np.einsum("ij,jk,ik->i", r, P, r) - log_norm),
        "Pi_d": np.mean(pid[:, -1]),
        "Pi_u": np.mean(0.5 * np.einsum("ij,jk,ik->i", r, C, r)),
        "Phi_q": np.mean(phq[:, -1]),
    }
    if m > 1:
        means["Pi_d_b"] = np.mean(pid[:, :-1].sum(axis=1))
        means["Phi_q_b"] = np.mean(phq[:, :-1].sum(axis=1))
    return means


def quadratic_model(ratio):
    """(sigma, G, losses) of the Dicke fluctuations at ratio * lambda_c, or
    of a one-mode squeezing model for ``ratio`` None."""
    if ratio is None:
        G, losses = np.array([[1.0, 0.3], [0.3, 0.6]]), (0.4,)
    else:
        _, G, losses = dicke_model(fig3_params(ratio * LAMBDA_C))
    return solve_lyapunov(*drift_diffusion(G, losses)), G, losses


BAD_COUNTS = [
    {"samples": -5},
    {"samples": 0},
    {"samples": 10.0},
    {"samples": True},
    {"samples": "10"},
    {"seed": -1},
    {"seed": 1.5},
    {"seed": True},
    {"seed": None},
]


def bad_count_id(bad):
    return "-".join(f"{k}={v!r}" for k, v in bad.items())


class TestMonteCarloOracle:
    @pytest.mark.parametrize("ratio", [0.5, 0.8, 1.2, 1.5, 2.0])
    def test_closed_forms_within_one_percent(self, ratio):
        p = fig3_params(ratio * LAMBDA_C)
        b, sigma, hp, mf = dicke_point(p)
        mc = mc_gaussian_budget(
            sigma, hamiltonian_quadratic_form(hp, p), (p.gamma, p.kappa),
            samples=10 ** 6, seed=20260810,
        )
        for name in ("S", "Pi_d", "Pi_u", "Phi_q", "Phi_q_b", "Pi_d_b"):
            assert getattr(mc, name) == pytest.approx(getattr(b, name), rel=0.01)
        # the sampled two-mode balance, against its terms' combined errors
        balance = mc.Pi_u + mc.Pi_d + mc.Pi_d_b - mc.Phi_q - mc.Phi_q_b
        combined = math.hypot(
            mc.Pi_u_stderr, mc.Pi_d_stderr, mc.Pi_d_b_stderr,
            mc.Phi_q_stderr, mc.Phi_q_b_stderr,
        )
        assert abs(balance) < 5.0 * combined

    def test_seeded_reproducibility_and_chunk_invariance(self, monkeypatch):
        # the same seed draws the same samples for any batch size; only the
        # grouping of the sums changes, so results agree to roundoff
        p = fig3_params(1.2 * LAMBDA_C)
        _, sigma, hp, _ = dicke_point(p)
        G, losses = hamiltonian_quadratic_form(hp, p), (p.gamma, p.kappa)
        a = mc_gaussian_budget(sigma, G, losses, samples=10 ** 5, seed=42)
        b = mc_gaussian_budget(sigma, G, losses, samples=10 ** 5, seed=42)
        assert a == b
        monkeypatch.setattr(dicke_gaussian, "MC_CHUNK", 2 ** 10)
        c = mc_gaussian_budget(sigma, G, losses, samples=10 ** 5, seed=42)
        for name in ("S", "Pi_d", "Pi_u", "Phi_q", "Phi_q_b", "Pi_d_b"):
            assert getattr(c, name) == pytest.approx(getattr(a, name), rel=1e-13)
            stderr = name + "_stderr"
            assert getattr(c, stderr) == pytest.approx(getattr(a, stderr), rel=1e-13)
        assert c.samples == a.samples

    @pytest.mark.parametrize(
        "ratio", [0.8, 1.2, None], ids=["dicke-0.8", "dicke-1.2", "one-mode"]
    )
    def test_whitened_estimators_match_r_coordinates(self, ratio):
        # the same draws through both forms of the integrands
        sigma, G, losses = quadratic_model(ratio)
        mc = mc_gaussian_budget(sigma, G, losses, samples=10 ** 4, seed=11)
        ref = r_coordinate_means(sigma, G, losses, 10 ** 4, seed=11)
        for name, value in ref.items():
            assert getattr(mc, name) == pytest.approx(value, rel=1e-12), name
        if len(losses) == 1:
            assert mc.Phi_q_b is mc.Pi_d_b is None
            assert mc.Phi_q_b_stderr is mc.Pi_d_b_stderr is None

    @pytest.mark.parametrize("bad", BAD_COUNTS, ids=bad_count_id)
    def test_bad_input_rejected(self, bad):
        sigma = solve_lyapunov(*drift_diffusion(np.zeros((2, 2)), (1.0,)))
        kwargs = {"samples": 10, "seed": 0, **bad}
        [name] = bad
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            mc_gaussian_budget(sigma, np.zeros((2, 2)), (1.0,), **kwargs)


class TestBatchedOracle:
    """mc_gaussian_budget draws its normals in batches of MC_CHUNK."""

    @pytest.mark.parametrize("bad", BAD_COUNTS, ids=bad_count_id)
    def test_empty_batch_validates_input(self, bad, monkeypatch):
        # a bad count is rejected before the model is whitened or any batch
        # is drawn, so the model itself is never looked at
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the counts were validated")

        monkeypatch.setattr(dicke_gaussian, "_whitened_estimators", no_work)
        monkeypatch.setattr(np.random, "Philox", no_work)
        kwargs = {"samples": 10, "seed": 0, **bad}
        [name] = bad
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            mc_gaussian_budget(None, None, (), **kwargs)


def within_check_bound(value, closed, b, losses):
    """The check in ``gaussian_budget``: |value - closed| within 1e-10 of
    |closed| plus the gross fluctuation flux sum_i k_i tr Sigma_i."""
    gross = b.Phi_q + (b.Phi_q_b or 0.0) + 2.0 * sum(losses)
    return abs(value - closed) <= 1e-10 * (abs(closed) + gross)


SCAN_RATIOS = {
    # the dicke_mc_scan benchmark's couplings, in units of lambda_c
    "benchmark-scan": list(np.linspace(0.30, 0.41, 45) / LAMBDA_C),
    "criterion-10": [0.5, 0.8, 1.2, 1.5, 2.0],
    "weak-coupling": [0.0, 1e-3],
}


class TestEstimatorMeans:
    @pytest.mark.parametrize(
        "ratios, gamma",
        [(r, 1e-3) for r in SCAN_RATIOS.values()] + [([0.99, 0.999, 1.001, 1.01], 1e-7)],
        ids=[*SCAN_RATIOS, "gamma-1e-7-near-lambda_c"],
    )
    def test_closed_forms_to_roundoff(self, ratios, gamma):
        for ratio in ratios:
            p = DickeParams(0.005, 0.01, 1.0, ratio * LAMBDA_C, gamma)
            b, sigma, hp, _ = dicke_point(p)
            losses = (p.gamma, p.kappa)
            means = estimator_means(sigma, hamiltonian_quadratic_form(hp, p), losses)
            assert set(means) == {"S", "Pi_u", "Pi_d", "Phi_q", "Pi_d_b", "Phi_q_b"}
            for name, value in means.items():
                assert within_check_bound(value, getattr(b, name), b, losses), (
                    ratio, name, value, getattr(b, name),
                )

    def test_one_mode_terms(self):
        sigma, G, losses = quadratic_model(None)
        b = gaussian_budget(sigma, G, losses, 0.0, 1)
        means = estimator_means(sigma, G, losses)
        assert set(means) == {"S", "Pi_u", "Pi_d", "Phi_q"}
        for name, value in means.items():
            assert within_check_bound(value, getattr(b, name), b, losses), name

    @pytest.mark.parametrize(
        "ratio", [0.8, 1.2, None], ids=["dicke-0.8", "dicke-1.2", "one-mode"]
    )
    def test_sampled_oracle_converges_to_means(self, ratio):
        # the quadrature's noise about the exact means is its standard error
        sigma, G, losses = quadratic_model(ratio)
        means = estimator_means(sigma, G, losses)
        mc = mc_gaussian_budget(sigma, G, losses, samples=10 ** 5, seed=5)
        for name, value in means.items():
            stderr = getattr(mc, name + "_stderr")
            assert abs(getattr(mc, name) - value) < 5.0 * stderr, name


def pi_d_slopes(p, lams):
    """(left, right) log-log slopes of Pi_d about lambda_c, solved at each
    coupling and fitted as ``fit-divergence`` fits a scan."""
    pids = [dicke_point(dataclasses.replace(p, lam=float(lam)))[0].Pi_d for lam in lams]
    (left, _, _), (right, _, _) = fit_power_law(lams, pids, critical_coupling(p))
    return left, right


class TestCriticalScans:
    def test_divergence_slopes(self):
        rels = np.linspace(0.03, 0.14, 23)
        grid = np.concatenate([(1 - rels) * LAMBDA_C, (1 + rels) * LAMBDA_C])
        left, right = pi_d_slopes(fig3_params(0.0), grid)
        assert left == pytest.approx(-1.0, abs=0.1)
        assert right == pytest.approx(-1.0, abs=0.1)

    def test_doubling_gamma_degrades_scaling(self):
        rels = np.linspace(0.03, 0.14, 23)
        grid = np.concatenate([(1 - rels) * LAMBDA_C, (1 + rels) * LAMBDA_C])
        p2 = DickeParams(0.005, 0.01, 1.0, 0.0, 2e-3)
        _, right = pi_d_slopes(p2, grid)
        assert right > -0.9  # gamma-rounded, shallower than -1

    def test_power_law_fitter_self_test(self):
        lams = LAMBDA_C * np.concatenate(
            [np.linspace(0.85, 0.96, 12), np.linspace(1.04, 1.15, 12)]
        )
        vals = 3.0 / np.abs(LAMBDA_C - lams)
        (ls, le, _), (rs, re, _) = fit_power_law(lams, vals, LAMBDA_C)
        assert ls == pytest.approx(-1.0, abs=1e-6)
        assert rs == pytest.approx(-1.0, abs=1e-6)

    def test_insufficient_points(self):
        lams = LAMBDA_C * np.array([0.90, 0.92, 1.05, 1.08])
        with pytest.raises(SolverConvergenceError):
            fit_power_law(lams, np.ones(4), LAMBDA_C)

    @pytest.mark.parametrize("lambda_c", [-0.35, 0.0, math.nan, math.inf])
    def test_bad_lambda_c_rejected(self, lambda_c):
        lams = LAMBDA_C * np.concatenate(
            [np.linspace(0.85, 0.96, 12), np.linspace(1.04, 1.15, 12)]
        )
        with pytest.raises(ValueError, match="lambda_c must be a finite number > 0"):
            fit_power_law(lams, 3.0 / np.abs(LAMBDA_C - lams), lambda_c)

    @pytest.mark.parametrize("where", ["lams", "values"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, where, bad):
        # an infinite value once gave slope nan; a nan value was dropped
        lams = LAMBDA_C * np.concatenate(
            [np.linspace(0.85, 0.96, 12), np.linspace(1.04, 1.15, 12)]
        )
        vals = 3.0 / np.abs(LAMBDA_C - lams)
        (lams if where == "lams" else vals)[3] = bad
        with pytest.raises(ValueError, match="couplings and values must be finite"):
            fit_power_law(lams, vals, LAMBDA_C)

    def test_kink(self):
        grid = LAMBDA_C * np.linspace(0.97, 1.03, 25)
        report = kink_detector(fig3_params(0.0), grid)
        noise = report.left_noise + report.right_noise
        assert abs(report.left_slope - report.right_slope) > 10.0 * noise
        assert report.jump_estimate < report.jump_bound

    def test_unitary_small_dissipative_large_near_core(self):
        grid = LAMBDA_C * np.linspace(0.95, 1.05, 21)
        pi_u_vals, pi_d_vals = [], []
        for lam in grid:
            b, *_ = dicke_point(fig3_params(float(lam)))
            pi_u_vals.append(b.Pi_u)
            pi_d_vals.append(b.Pi_d)
        assert max(abs(v) for v in pi_u_vals) < 1.0
        assert max(pi_d_vals) > 1e3
