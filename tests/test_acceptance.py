"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 5a is asserted exactly as specified and is a known
honest failure at the reference parameters: the per-size peaks of Pi_d/N
approach their thermodynamic value from above (the diverging quantity is
Pi_d itself, whose peak does grow with N; see the printed diagnostics).
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import BALANCE_DRIVES, kerr_params
from oracles.critical import (
    extrapolate_eps_c,
    kink_detector,
    parabola_vertex,
    to_collapse_points,
)
from oracles.kramers import barrier, eps_c_inf
from oracles.rk4 import evolve_to_stationarity
from oracles.states import coherent, thermal, trace_distance, vacuum, von_neumann_entropy
from oracles.tensor_grid import tensor_budget
from wehrlflux.budget import KerrParams
from wehrlflux.collapse import collapse_transform
from wehrlflux.dicke_gaussian import (
    DickeParams,
    critical_coupling,
    dicke_point,
    hamiltonian_quadratic_form,
    mc_gaussian_budget,
    mean_field_fixed_point,
)
from wehrlflux.divergence import fit_power_law
from wehrlflux.kerr_model import steady_state_certified, sweep
from wehrlflux.kerr_state import bistability_window, recommended_cutoff
from wehrlflux.liouvillian import build_kerr_liouvillian, steady_state
from wehrlflux.phase_space import (
    auto_grid,
    husimi_field,
    wehrl_entropy,
)

WEHRL_VACUUM = 1.0 + math.log(math.pi)
FIG3 = DickeParams(0.005, 0.01, 1.0, 0.0, 1e-3)
LAMBDA_C = critical_coupling(FIG3)

_computed_states = []  # (label, rho) pairs fed into criterion 6


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>3}: {status} - {name}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# Criterion 1: empty-cavity closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pump,kappa", [(1.0, 0.5), (2.0, 1.0), (0.5, 0.25)])
def test_criterion_01_empty_cavity(pump, kappa):
    start = time.perf_counter()
    p = KerrParams(0.0, 1e-12, kappa, pump, 1)
    rho, _ = steady_state_certified(p)
    budget = tensor_budget(rho, p, auto_grid(rho))
    elapsed = time.perf_counter() - start
    target = 2.0 * pump ** 2 / kappa
    pi_total = budget.Pi_ext + budget.Pi_u + budget.Pi_d
    rel = abs(pi_total - target) / target
    _computed_states.append((f"cavity E={pump}", rho))
    ok = rel < 1e-4 and elapsed < 10.0
    report(
        "1", f"empty cavity E={pump}, kappa={kappa}", ok,
        f"Pi={pi_total:.6f} vs {target}, rel={rel:.2e}, {elapsed:.1f}s",
    )
    assert rel < 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: steady-state oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    distances = {}
    for eps in (0.55, 0.80, 1.35):  # below / inside / above the window
        p = kerr_params(eps, 5)
        n = recommended_cutoff(p)
        L = build_kerr_liouvillian(p, n)
        rho_eig = steady_state(L)
        rho_rk4, _ = evolve_to_stationarity(vacuum(n), L)
        distances[eps] = trace_distance(rho_eig, rho_rk4)
    elapsed = time.perf_counter() - start
    ok = max(distances.values()) < 1e-8 and elapsed < 120.0
    report(
        "2", "eigenvector vs RK4 oracle (N=5)", ok,
        ", ".join(f"eps={e}: {d:.1e}" for e, d in distances.items())
        + f", {elapsed:.0f}s",
    )
    assert max(distances.values()) < 1e-8
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# Criterion 3: bistability window
# ---------------------------------------------------------------------------

def test_criterion_03_bistability_window():
    p = kerr_params(0.0, 1)
    w = bistability_window(p)
    # brute-force turning-point scan of the mean-field response
    n = np.linspace(1e-4, 6.0, 400001)
    eps_curve = np.sqrt(n * (p.kappa ** 2 + (p.delta + n * p.u) ** 2))
    turn = np.nonzero(np.diff(np.sign(np.diff(eps_curve))) != 0)[0] + 1
    scan_eps = sorted(eps_curve[turn], reverse=True)
    ok = (
        abs(w.eps_minus - 1.1662) < 1e-4
        and abs(w.eps_plus - 0.7014) < 1e-4
        and abs(scan_eps[0] - w.eps_minus) < 1e-6
        and abs(scan_eps[1] - w.eps_plus) < 1e-6
    )
    report(
        "3", "bistability window", ok,
        f"eps(n-)={w.eps_minus:.6f}, eps(n+)={w.eps_plus:.6f}, scan agrees",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: NESS entropy balance across the transition
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def balance_states(ness_cache):
    out = {}
    for eps in BALANCE_DRIVES:
        p = kerr_params(eps, 10)
        rho, L = ness_cache(p)
        out[eps] = (p, rho)
        _computed_states.append((f"kerr N=10 eps={eps}", rho))
    return out


def test_criterion_04_balance(balance_states):
    worst = {128: 0.0, 256: 0.0}
    for eps, (p, rho) in balance_states.items():
        for pts in (128, 256):
            b = tensor_budget(rho, p, auto_grid(rho, points_per_axis=pts))
            worst[pts] = max(worst[pts], b.balance_rel)
    ok = worst[128] < 1e-2 and worst[256] < 1e-3
    report(
        "4", "fluctuation balance Pi_u + Pi_d = Phi_q (N=10, 10 drives)", ok,
        f"worst 128^2: {worst[128]:.2e}, worst 256^2: {worst[256]:.2e}",
    )
    assert worst[128] < 1e-2
    assert worst[256] < 1e-3


# ---------------------------------------------------------------------------
# Criterion 5: desk-scale reproduction of the transition curves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_sweep():
    base = KerrParams(-2.0, 1.0, 0.5, 0.0, 1)
    scans = {
        10: np.linspace(0.935, 0.975, 9),
        20: np.linspace(0.935, 0.960, 9),
        30: np.linspace(0.930, 0.952, 9),
    }
    gap_records = []
    for N, grid in scans.items():
        r = sweep(base, [N], [float(e) for e in grid], compute_gap=True,
                  threads=2)
        assert not r.failures
        gap_records.extend(r.records)
    eps_c = extrapolate_eps_c(gap_records)

    xs = np.round(
        np.unique(np.concatenate([np.arange(-1.5, 1.501, 0.075),
                                  np.arange(-5.0, 5.01, 0.5)])), 9
    )
    records = {}
    for N in (10, 20, 30):
        eps_grid = sorted({round(float(eps_c * (1 + x / N)), 10) for x in xs})
        r = sweep(base, [N], eps_grid, compute_gap=False, threads=2)
        assert not r.failures
        records[N] = sorted(r.records, key=lambda rec: rec.eps)
    return eps_c, records, gap_records


def test_criterion_05a_pi_d_over_n_peak_monotone(desk_sweep):
    eps_c, records, _ = desk_sweep
    peaks = {}
    for N, rows in records.items():
        eps = np.array([r.eps for r in rows])
        pdn = np.array([r.budget.Pi_d / N for r in rows])
        peaks[N] = parabola_vertex(eps, pdn, int(np.argmax(pdn)))[1]
    increasing = peaks[10] < peaks[20] < peaks[30]
    pi_d_peaks = {N: N * v for N, v in peaks.items()}
    report(
        "5a", "peak of Pi_d/N increases monotonically with N", increasing,
        f"measured peaks {peaks[10]:.4f} / {peaks[20]:.4f} / {peaks[30]:.4f} "
        f"(decreasing toward the thermodynamic value; the diverging quantity "
        f"Pi_d peaks at {pi_d_peaks[10]:.1f} / {pi_d_peaks[20]:.1f} / "
        f"{pi_d_peaks[30]:.1f})",
    )
    # The criterion is asserted as specified.  At the reference parameters
    # the measured peaks decrease toward the N->infinity limit while Pi_d
    # itself diverges, so this assertion documents a known spec defect
    # rather than an implementation bug.
    assert increasing, (
        "peak of Pi_d/N decreases with N toward its thermodynamic value "
        f"({peaks[10]:.4f} > {peaks[20]:.4f} > {peaks[30]:.4f}); "
        "Pi_d itself diverges as the transition sharpens "
        f"({pi_d_peaks[10]:.1f} < {pi_d_peaks[20]:.1f} < {pi_d_peaks[30]:.1f})"
    )


def test_criterion_05b_pi_u_steepens(desk_sweep):
    _, records, _ = desk_sweep
    slopes = {}
    for N, rows in records.items():
        eps = np.array([r.eps for r in rows])
        piu = np.array([r.budget.Pi_u for r in rows])
        slopes[N] = float(np.max(np.abs(np.gradient(piu, eps))))
    ok = slopes[10] < slopes[20] < slopes[30]
    report(
        "5b", "max |dPi_u/deps| increases with N", ok,
        f"{slopes[10]:.2f} / {slopes[20]:.2f} / {slopes[30]:.2f}",
    )
    assert ok


def test_criterion_05c_collapse(desk_sweep):
    eps_c, records, _ = desk_sweep
    points = to_collapse_points(
        [r for rows in records.values() for r in rows]
    )
    result = collapse_transform(points, eps_c)
    spread = result.metrics[(20, 30)]
    ok = spread["Pi_u"] < 0.1 and spread["Pi_d_over_N"] < 0.1
    report(
        "5c", "collapse of Pi_u and Pi_d/N between the two largest sizes", ok,
        f"eps_c={eps_c:.6f}, Pi_u spread {spread['Pi_u']:.3f}, "
        f"Pi_d/N spread {spread['Pi_d_over_N']:.3f}",
    )
    assert spread["Pi_u"] < 0.1
    assert spread["Pi_d_over_N"] < 0.1


def test_gap_follows_kramers_law(desk_sweep):
    # the gap near eps_c closes like C exp(-N dphi), with dphi the barrier
    # of the exact state's large-N weight (oracles.kramers): an oracle for
    # the gap stage's 27 gaps that shares no algebra with the Liouvillian
    _, _, gap_records = desk_sweep
    dphi = barrier(kerr_params(0.0, 1))
    log_min = {}
    for N in (10, 20, 30):
        rows = sorted((r for r in gap_records if r.N == N), key=lambda r: r.eps)
        eps = np.array([r.eps for r in rows])
        log_gap = np.log([r.gap for r in rows])
        i = int(np.argmin(log_gap))
        assert 0 < i < len(rows) - 1
        log_min[N] = parabola_vertex(eps, log_gap, i)[1]
    slope = (log_min[10] - log_min[30]) / 20
    offsets = [log_min[N] + N * dphi for N in (10, 20, 30)]
    spread = max(offsets) - min(offsets)
    print(
        f"Kramers law: slope {slope:.5f} vs dphi {dphi:.5f}, "
        f"ln g_min + N dphi = " + " / ".join(f"{v:.4f}" for v in offsets)
    )
    assert abs(slope - dphi) < 1e-3
    assert spread < 0.01


def test_extrapolated_eps_c_near_equal_weight_drive(desk_sweep):
    # the 1/N extrapolation of the N = 10/20/30 gap minima against the
    # drive at which the exact state's two branches weigh alike as
    # N -> infinity (oracles.kramers), from the parameters alone
    _, _, gap_records = desk_sweep
    eps_c = extrapolate_eps_c(gap_records)
    limit = eps_c_inf(kerr_params(0.0, 1))
    print(f"extrapolated eps_c {eps_c:.6f} vs eps_c_inf {limit:.7f}")
    assert abs(eps_c - limit) < 2e-4


# ---------------------------------------------------------------------------
# Criterion 6: Wehrl properties on every computed state
# ---------------------------------------------------------------------------

def test_criterion_06_wehrl_properties(balance_states):
    states = list(_computed_states)
    states += [
        ("vacuum", vacuum(12)),
        ("thermal nbar=1", thermal(1.0, 50)),
        ("coherent 1.5", coherent(1.5, 40)),
    ]
    worst_bound = math.inf
    worst_gap = math.inf
    for label, rho in states:
        s = wehrl_entropy(husimi_field(rho, auto_grid(rho)))
        worst_bound = min(worst_bound, s - WEHRL_VACUUM)
        worst_gap = min(worst_gap, s - von_neumann_entropy(rho))
    ok = worst_bound > -1e-6 and worst_gap > -1e-6
    report(
        "6", f"Wehrl bound and majorization on {len(states)} states", ok,
        f"min(S - S_vacuum) = {worst_bound:.3e}, min(S - S_vN) = {worst_gap:.3e}",
    )
    assert worst_bound > -1e-6
    assert worst_gap > -1e-6


# ---------------------------------------------------------------------------
# Criterion 7: Dicke mean field
# ---------------------------------------------------------------------------

def test_criterion_07_dicke_mean_field():
    import mpmath

    mpmath.mp.dps = 40
    lc_exact = float(
        0.5 * mpmath.sqrt(
            (mpmath.mpf("0.005") / mpmath.mpf("0.01"))
            * (1 + mpmath.mpf("0.01") ** 2)
        )
    )
    p = DickeParams(0.005, 0.01, 1.0, math.sqrt(2.0) * LAMBDA_C, 1e-3)
    mf = mean_field_fixed_point(p)
    checks = {
        "beta": abs(mf.beta - math.sqrt(3.0) / 4.0) < 1e-12,
        "constraint": abs(mf.w ** 2 + mf.beta ** 2 - 0.25) < 1e-12,
        "lambda_c": abs(LAMBDA_C - lc_exact) < 1e-12,
    }
    ok = all(checks.values())
    report(
        "7", "Dicke mean field", ok,
        f"beta={mf.beta:.15f}, lambda_c={LAMBDA_C:.12f} "
        "(factor-2 against the alternative normalization documented in README)",
    )
    assert ok, checks


# ---------------------------------------------------------------------------
# Criterion 8: divergence exponent
# ---------------------------------------------------------------------------

def test_criterion_08_divergence_slopes():
    start = time.perf_counter()
    rels = np.linspace(0.03, 0.14, 23)
    grid = np.concatenate([(1 - rels) * LAMBDA_C, (1 + rels) * LAMBDA_C])
    pids = [dicke_point(dataclasses.replace(FIG3, lam=float(lam)))[0].Pi_d for lam in grid]
    (left, left_err, _), (right, right_err, _) = fit_power_law(grid, pids, LAMBDA_C)
    elapsed = time.perf_counter() - start
    ok = abs(left + 1.0) < 0.1 and abs(right + 1.0) < 0.1 and elapsed < 60.0
    report(
        "8", "Pi_d divergence exponent -1 on both sides", ok,
        f"left {left:.3f}+-{left_err:.3f}, "
        f"right {right:.3f}+-{right_err:.3f}, {elapsed:.1f}s",
    )
    assert abs(left + 1.0) < 0.1
    assert abs(right + 1.0) < 0.1
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 9: kink in the unitary production
# ---------------------------------------------------------------------------

def test_criterion_09_kink():
    grid = LAMBDA_C * np.linspace(0.97, 1.03, 25)
    rep = kink_detector(FIG3, grid)
    noise = rep.left_noise + rep.right_noise
    ok = (
        abs(rep.left_slope - rep.right_slope) > 10.0 * noise
        and rep.jump_estimate < rep.jump_bound
    )
    report(
        "9", "Pi_u kink at lambda_c, Pi_u continuous", ok,
        f"slopes {rep.left_slope:.3f} / {rep.right_slope:.3f}, "
        f"noise {noise:.1e}, jump {rep.jump_estimate:.1e} < {rep.jump_bound:.1e}",
    )
    assert abs(rep.left_slope - rep.right_slope) > 10.0 * noise
    assert rep.jump_estimate < rep.jump_bound


# ---------------------------------------------------------------------------
# Criterion 10: Gaussian closed forms vs Monte-Carlo oracle
# ---------------------------------------------------------------------------

def test_criterion_10_monte_carlo():
    worst = {"S": 0.0, "Pi_d": 0.0, "Pi_u": 0.0}
    for ratio in (0.5, 0.8, 1.2, 1.5, 2.0):
        p = DickeParams(0.005, 0.01, 1.0, ratio * LAMBDA_C, 1e-3)
        budget, sigma, hp, _ = dicke_point(p)
        mc = mc_gaussian_budget(
            sigma, hamiltonian_quadratic_form(hp, p), (p.gamma, p.kappa),
            samples=10 ** 6, seed=20260810,
        )
        worst["S"] = max(worst["S"], abs(mc.S - budget.S) / abs(budget.S))
        worst["Pi_d"] = max(worst["Pi_d"], abs(mc.Pi_d - budget.Pi_d) / abs(budget.Pi_d))
        worst["Pi_u"] = max(worst["Pi_u"], abs(mc.Pi_u - budget.Pi_u) / abs(budget.Pi_u))
    ok = all(v < 0.01 for v in worst.values())
    report(
        "10", "closed forms vs 1e6-sample Monte-Carlo (5 couplings)", ok,
        ", ".join(f"{k}: {v:.2e}" for k, v in worst.items()),
    )
    assert all(v < 0.01 for v in worst.values()), worst


# ---------------------------------------------------------------------------
# Criterion 11: byte-identical CLI output
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    import json

    from wehrlflux.cli import main

    def run(tag, threads):
        cfg = {
            "schema_version": 1,
            "model": "kerr",
            "params": {"delta": -2.0, "u": 1.0, "kappa": 0.5},
            "sweep": {"N_list": [3], "eps": {"min": 0.5, "max": 0.8, "count": 2}},
            "numerics": {
                "certify_cutoff": False,
                "compute_gap": True,
                "points_per_axis": 64,
            },
            "output": str(tmp_path / "out.csv"),
        }
        path = tmp_path / f"cfg_{tag}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--threads", str(threads)]) == 0
        return (tmp_path / "out.csv").read_bytes()

    runs = [run("a", 1), run("b", 1), run("c", 2)]
    ok = runs[0] == runs[1] == runs[2]
    report("11", "identical config + seed gives byte-identical CSV", ok,
           f"{len(runs[0])} bytes, threads 1/1/2")
    assert ok
