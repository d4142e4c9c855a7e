"""Finite-size data collapse of Kerr sweep curves.

``collapse_transform`` rescales the entropy-production curves of several
system sizes onto the coordinate x = N (eps/eps_c - 1), with Pi_u and
Pi_d/N on the vertical axes, and scores how well consecutive sizes
overlap.  It works on plain numbers, so this module needs numpy alone:
the CLI's ``collapse`` reads a results file and never loads the Kerr
solvers or scipy.  ``to_collapse_points`` takes the points from the
records of ``kerr_model.sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CollapsePoint:
    N: int
    eps: float
    Pi_u: float
    Pi_d: float


def to_collapse_points(records) -> list[CollapsePoint]:
    return [
        CollapsePoint(r.N, r.eps, r.budget.Pi_u, r.budget.Pi_d) for r in records
    ]


@dataclass(frozen=True)
class CollapseResult:
    """Rescaled sweep curves and their pairwise collapse quality.

    ``rows`` hold (x, Pi_u, Pi_d/N, N) with x = N (eps/eps_c - 1).
    ``metrics`` maps consecutive size pairs to the peak-normalized maximum
    vertical spread per quantity, or None when x-ranges do not overlap.
    """

    rows: list
    metrics: dict


def collapse_transform(points, eps_c: float) -> CollapseResult:
    """Points with a size ``N`` >= 1 and finite ``eps``, ``Pi_u`` and
    ``Pi_d``, rescaled at ``eps_c``; any other input raises ``ValueError``."""
    if not (math.isfinite(eps_c) and eps_c > 0):
        raise ValueError(f"eps_c must be a finite number > 0, got {eps_c!r}")
    points = sorted(points, key=lambda r: (r.N, r.eps))
    for p in points:
        if not (p.N >= 1 and all(map(math.isfinite, (p.eps, p.Pi_u, p.Pi_d)))):
            raise ValueError(f"collapse point needs N >= 1 and finite values, got {p}")
    rows = [
        (p.N * (p.eps / eps_c - 1.0), p.Pi_u, p.Pi_d / p.N, p.N) for p in points
    ]
    by_n = {}
    for x, piu, pidn, n in rows:
        by_n.setdefault(n, []).append((x, piu, pidn))
    sizes = sorted(by_n)
    metrics = {}
    for n1, n2 in zip(sizes, sizes[1:]):
        metrics[(n1, n2)] = _pair_spread(by_n[n1], by_n[n2])
    return CollapseResult(rows=rows, metrics=metrics)


def _pair_spread(curve1, curve2):
    c1 = np.array(sorted(curve1))
    c2 = np.array(sorted(curve2))
    lo = max(c1[0, 0], c2[0, 0])
    hi = min(c1[-1, 0], c2[-1, 0])
    if hi <= lo:
        return None
    xs = np.linspace(lo, hi, 201)
    out = {}
    for col, name in ((1, "Pi_u"), (2, "Pi_d_over_N")):
        y1 = np.interp(xs, c1[:, 0], c1[:, col])
        y2 = np.interp(xs, c2[:, 0], c2[:, col])
        peak = max(np.max(np.abs(y1)), np.max(np.abs(y2)), 1e-300)
        out[name] = float(np.max(np.abs(y1 - y2)) / peak)
    return out
