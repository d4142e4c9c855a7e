"""Self-test of the benchmark's correctness checks.

usage: python3 perfbench/selftest.py

``fixtures/`` holds the outputs of one real run of each workload.  Every
check must pass on them, and each corruption below must make the check it
targets report a failure.  Also checks that BENCHMARK.json, when present
one directory up, names the metrics and workloads that run.py emits.
Standard library only; the package under test is not imported.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import checks
import run

HERE = os.path.dirname(os.path.abspath(__file__))
FIX = os.path.join(HERE, "fixtures")


def load():
    gap = []
    for n in (10, 20, 30):
        gap += checks.read_csv(os.path.join(FIX, f"gap_N{n}.csv"))[0]
    with open(os.path.join(FIX, "gap_photons.json"), encoding="utf-8") as fh:
        photons = json.load(fh)
    scan, header = checks.read_csv(os.path.join(FIX, "dicke_scan.csv"))
    with open(os.path.join(FIX, "dicke_fit.txt"), encoding="utf-8") as fh:
        fit = fh.read()
    return gap, photons, scan, header, fit


def kerr_all(rows, photons):
    out = []
    for row, n in zip(rows, photons):
        out += checks.kerr_point(row, run.KERR["kappa"], n)
    return out


def row(rows, n, k):
    """k-th drive (by eps) of size n."""
    return sorted((r for r in rows if r["N"] == n), key=lambda r: r["eps_or_lambda"])[k]


def cases(gap, photons, scan, header, fit):
    """(name, fixture mutation, check to run, expected message fragment)."""

    def kerr(mutate, fragment):
        def go():
            rows = copy.deepcopy(gap)
            mutate(rows)
            return kerr_all(rows, photons)
        return go, fragment

    def gap_case(mutate, fragment):
        def go():
            rows = copy.deepcopy(gap)
            mutate(rows)
            return checks.gap_scaling(rows, run.KERR)
        return go, fragment

    def dicke(mutate, fragment, code=0):
        def go():
            rows, hdr = copy.deepcopy(scan), list(header)
            hdr = mutate(rows, hdr) or hdr
            return checks.dicke_scan(rows, hdr, run.DICKE, code)
        return go, fragment

    def fit_case(text, fragment, code=0):
        return (lambda: checks.divergence_fit(text, code)), fragment

    def set_(n, k, key, value):
        return lambda rows: row(rows, n, k).__setitem__(key, value)

    def scale(n, key, factor, k=None):
        def mutate(rows):
            for r in rows:
                if r["N"] == n and (k is None or r is row(rows, n, k)):
                    r[key] *= factor
        return mutate

    def shift_eps(n, by):
        def mutate(rows):
            for r in rows:
                if r["N"] == n:
                    r["eps_or_lambda"] += by
        return mutate

    def below(rows, hdr):
        rows[0]["beta"] = 0.1

    def above(rows, hdr):
        rows[-1]["beta"] *= 1.01

    def lambda_c(rows, hdr):
        # the factor-2 normalization of the coupling
        return [f"# lambda_c={2 * float(checks.header_value(hdr, 'lambda_c'))!r}"
                if line.startswith("# lambda_c=") else line for line in hdr]

    return {
        "balance": kerr(scale(20, "Pi_d", 1.05, k=1), "|Pi_u + Pi_d - Phi_q|"),
        "wehrl_bound": kerr(set_(10, 0, "S", 2.0), "Wehrl bound"),
        "pi_d_sign": kerr(set_(30, 2, "Pi_d", -1e-3), "negative"),
        "flux": kerr(scale(30, "Phi_q", 1.0 + 1e-6, k=0), "2 kappa <n>"),
        "gap_bracket": gap_case(set_(30, 1, "gap", 0.507), "not bracketed"),
        "gap_drops": gap_case(scale(30, "gap", 10.0), "drops disagree"),
        "eps_c": gap_case(shift_eps(30, 0.3), "outside"),
        "mc_check": dicke(lambda rows, hdr: None, "Monte-Carlo", code=3),
        "lambda_c": dicke(lambda_c, "lambda_c header"),
        "beta_below": dicke(below, "closed form"),
        "beta_above": dicke(above, "closed form"),
        "slope": fit_case(fit.replace("slope=-1.07", "slope=-1.17"), "not within"),
        "fit_missing": fit_case(fit.split("right:")[0], "fit-divergence"),
        "fit_exit": fit_case(fit, "fit-divergence", code=3),
    }


def benchmark_json_matches() -> list:
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            out.append(f"BENCHMARK.json {key} differs from run.py: "
                       f"{sorted(set(listed.items()) ^ set(table.items()))}")
    unknown = {w["name"] for w in spec["workloads"]} - set(run.WORKLOADS)
    if unknown:
        out.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    return out


def main() -> int:
    data = load()
    gap, photons, scan, header, fit = data
    problems = benchmark_json_matches()
    clean = (kerr_all(gap, photons) + checks.gap_scaling(gap, run.KERR)
             + checks.dicke_scan(scan, header, run.DICKE, 0)
             + checks.divergence_fit(fit, 0))
    problems += [f"clean fixture rejected: {msg}" for msg in clean]
    for name, (go, fragment) in cases(*data).items():
        found = go()
        if not any(fragment in msg for msg in found):
            problems.append(f"{name}: corruption not rejected (got {found})")
        else:
            print(f"ok   {name}: {next(m for m in found if fragment in m)}")
    for msg in problems:
        print(f"FAIL {msg}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
