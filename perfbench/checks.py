"""Correctness checks on the outputs of the benchmark workloads.

Every check tests a property the method must have, or compares with a value
computed here from the inputs; none compares with numbers recorded from an
earlier run.  Each function returns a list of failure messages (empty when
the output passes), so the benchmark can report all of them at once and the
self-test can show that each check rejects a corrupted output.

Standard library only: the benchmark process itself never imports numpy or
the package under test.
"""

from __future__ import annotations

import csv
import math
import re

WEHRL_VACUUM = 1.0 + math.log(math.pi)
BALANCE_TOL = 1e-2
FLUX_TOL = 1e-9
# ln g_min(10) - ln g_min(20) and ln g_min(20) - ln g_min(30) are both 6.738
# at the reference parameters; a gap solve that loses the slow mode moves one
# of them by several units.
DROP_TOL = 0.1
SLOPE_TOL = 0.1
LAMBDA_C_TOL = 1e-12
BETA_TOL = 1e-9


def read_csv(path: str):
    """Rows of a results CSV as dicts of floats, plus its '#' header lines."""
    header, lines = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            (header if line.startswith("#") else lines).append(line.rstrip("\n"))
    rows = []
    for rec in csv.DictReader(lines):
        row = {}
        for key, val in rec.items():
            if key == "model":
                row[key] = val
            else:
                row[key] = float(val) if val != "" else None
        rows.append(row)
    return rows, header


def header_value(header, key):
    prefix = f"# {key}="
    for line in header:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


# ---------------------------------------------------------------------------
# Kerr
# ---------------------------------------------------------------------------

def kerr_point(row, kappa: float, n_photon: float | None) -> list:
    """Per-point Kerr budget checks.

    ``n_photon`` is <a^dag a> of the steady state, computed outside the run
    that produced ``row``; None skips the flux identity.
    """
    where = f"N={row['N']:g} eps={row['eps_or_lambda']:.6g}"
    out = []
    phi_q = row["Phi_q"]
    if not phi_q > 0:
        out.append(f"{where}: Phi_q = {phi_q} is not positive")
    else:
        bal = abs(row["Pi_u"] + row["Pi_d"] - phi_q) / phi_q
        if not bal < BALANCE_TOL:
            out.append(f"{where}: |Pi_u + Pi_d - Phi_q| / Phi_q = {bal:.3e}")
    if not row["S"] >= WEHRL_VACUUM:
        out.append(f"{where}: S = {row['S']} below the Wehrl bound 1 + ln(pi)")
    if not row["Pi_d"] >= 0:
        out.append(f"{where}: Pi_d = {row['Pi_d']} is negative")
    if n_photon is not None:
        phi = 2.0 * kappa * n_photon
        rel = abs(row["Phi_ext"] + phi_q - phi) / phi
        if not rel < FLUX_TOL:
            out.append(
                f"{where}: Phi_ext + Phi_q = {row['Phi_ext'] + phi_q!r} but "
                f"2 kappa <n> = {phi!r} (rel {rel:.2e})"
            )
    return out


def _parabola(points):
    """Vertex (x, y) of the parabola through three (x, y) points."""
    (x0, y0), (x1, y1), (x2, y2) = points
    den = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / den
    b = (x2 ** 2 * (y0 - y1) + x1 ** 2 * (y2 - y0) + x0 ** 2 * (y1 - y2)) / den
    c = y0 - a * x0 ** 2 - b * x0
    x = -b / (2.0 * a)
    return x, a * x * x + b * x + c


def bistability_window(delta: float, u: float, kappa: float):
    """(eps_lo, eps_hi) of the mean-field S-curve, from its turning points."""
    root = math.sqrt(delta ** 2 - 3.0 * kappa ** 2)
    eps = [
        math.sqrt(n * (kappa ** 2 + (delta + n * u) ** 2))
        for n in ((-2.0 * delta - root) / (3.0 * u), (-2.0 * delta + root) / (3.0 * u))
    ]
    return min(eps), max(eps)


def gap_scaling(rows, params) -> list:
    """Gap-stage checks: bracketed minima, exponential closing, eps_c.

    The gap minimum at each size is refined by a parabola in ln(gap) through
    the grid minimum and its neighbours.  ln g_min must drop by the same
    amount from N=10 to 20 as from 20 to 30, and the 1/N extrapolation of
    the minimizing drive must land inside the mean-field bistable window.
    """
    out = []
    by_n = {}
    for r in rows:
        by_n.setdefault(int(r["N"]), []).append(r)
    minima = {}
    for n, pts in sorted(by_n.items()):
        pts.sort(key=lambda r: r["eps_or_lambda"])
        gaps = [r["gap"] for r in pts]
        if any(g is None or not g > 0 for g in gaps):
            out.append(f"N={n}: non-positive or missing gap in {gaps}")
            continue
        i = min(range(len(gaps)), key=gaps.__getitem__)
        if not 0 < i < len(gaps) - 1:
            out.append(f"N={n}: gap minimum not bracketed, gaps {gaps}")
            continue
        minima[n] = _parabola(
            [(pts[j]["eps_or_lambda"], math.log(gaps[j])) for j in (i - 1, i, i + 1)]
        )
    if len(minima) != len(by_n) or len(minima) < 3:
        return out or [f"need bracketed minima at three sizes, got {sorted(minima)}"]
    sizes = sorted(minima)
    drops = [minima[a][1] - minima[b][1] for a, b in zip(sizes, sizes[1:])]
    if not (min(drops) > 0 and max(drops) - min(drops) < DROP_TOL):
        out.append(f"ln g_min drops disagree: {[round(d, 4) for d in drops]}")
    # least-squares line eps_min = eps_c + b / N
    xs = [1.0 / n for n in sizes]
    ys = [minima[n][0] for n in sizes]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    eps_c = my - slope * mx
    lo, hi = bistability_window(params["delta"], params["u"], params["kappa"])
    if not lo < eps_c < hi:
        out.append(f"extrapolated eps_c = {eps_c:.6f} outside ({lo:.4f}, {hi:.4f})")
    return out


# ---------------------------------------------------------------------------
# Dicke
# ---------------------------------------------------------------------------

def dicke_scan(rows, header, params, returncode: int) -> list:
    """The CLI's Monte-Carlo check passed, lambda_c and beta match closed forms."""
    out = []
    if returncode != 0:
        out.append(f"wehrlflux run exited with {returncode} (Monte-Carlo check)")
    lc = 0.5 * math.sqrt(
        (params["omega0"] / params["omega"]) * (params["kappa"] ** 2 + params["omega"] ** 2)
    )
    stamped = header_value(header, "lambda_c")
    if stamped is None or not abs(float(stamped) - lc) <= LAMBDA_C_TOL * lc:
        out.append(f"lambda_c header {stamped} differs from closed form {lc!r}")
    for r in rows:
        lam = r["eps_or_lambda"]
        expect = 0.5 * math.sqrt(1.0 - (lc / lam) ** 4) if lam > lc else 0.0
        if r["beta"] is None or not abs(r["beta"] - expect) <= BETA_TOL:
            out.append(f"lambda={lam:.6g}: beta = {r['beta']} but closed form {expect!r}")
    return out


_SLOPE = re.compile(r"^(left|right): slope=(\S+)", re.M)


def divergence_fit(text: str, returncode: int) -> list:
    """Both fitted log-log slopes of Pi_d within SLOPE_TOL of -1."""
    slopes = dict(_SLOPE.findall(text))
    if returncode != 0 or set(slopes) != {"left", "right"}:
        return [f"fit-divergence exited with {returncode}, output {text!r}"]
    return [
        f"{side} slope {float(s):.4f} not within {SLOPE_TOL} of -1"
        for side, s in sorted(slopes.items())
        if not abs(float(s) + 1.0) < SLOPE_TOL
    ]
