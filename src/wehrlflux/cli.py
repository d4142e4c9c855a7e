"""Batch front door: validated JSON run configs in, CSV result tables out.

Subcommands:
    wehrlflux run <config.json> [--keep-going] [--threads K]
    wehrlflux collapse <results.csv> --eps-c <v>
    wehrlflux fit-divergence <results.csv> --window <lo,hi> [--lambda-c <v>]

Results are CSV with '#' comment headers carrying the schema version, a
hash of the config and the code version.  Floats are serialized with 17
significant digits, so written rows read back bit-exactly.  Identical
config (and seed) produces byte-identical output for any thread count;
per-point wall time is only recorded when the config opts in, since live
timings would break that reproducibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time

from . import __version__
from .errors import ConfigError, WehrlFluxError
from .phase_space import MASS_TOL, MIN_POINTS_PER_AXIS, POINTS_PER_AXIS, Q_FLOOR_RATIO

SCHEMA_VERSION = 1

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

CSV_COLUMNS = [
    "model", "N", "eps_or_lambda", "S", "Phi_ext", "Phi_q", "Pi_ext",
    "Pi_u", "Pi_d", "gap", "alpha_re", "alpha_im", "beta", "residual",
    "n_max_used", "wall_time_s",
]

# The numerics keys each model reads, with their defaults.
_NUMERICS_DEFAULTS = {
    "kerr": {
        "n_max": None,
        "points_per_axis": POINTS_PER_AXIS,
        "mass_tol": MASS_TOL,
        "q_floor_ratio": Q_FLOOR_RATIO,
        "certify_cutoff": True,  # ignored: each Kerr point checks its Fock tail
        "compute_gap": True,
        "timing": False,
    },
    "dicke": {"mc_validate": False, "mc_samples": 10 ** 6, "seed": 0, "timing": False},
    "cavity": {"timing": False},
}

_SWEEP_KEYS = {
    "kerr": {"N_list", "eps"},
    "dicke": {"lambda"},
    "cavity": set(),
}

_PARAM_KEYS = {
    "kerr": {"delta", "u", "kappa"},
    "dicke": {"omega0", "omega", "kappa", "gamma", "N"},
    "cavity": {"E", "kappa"},
}

_PARAM_REQUIRED = {
    "kerr": {"delta", "u", "kappa"},
    "dicke": {"omega0", "omega", "kappa"},
    "cavity": {"E", "kappa"},
}


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    return validate_config(raw, path)


def _reject_unknown(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require_number(block: dict, key: str, where: str, positive=False):
    if key not in block:
        raise ConfigError(f"missing required key '{key}' in {where}")
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise ConfigError(f"{where}.{key} must be a finite number, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"{where}.{key} must be positive, got {val}")
    return float(val)


def _is_int(val, lowest: int) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= lowest


def _grid_spec(block: dict, where: str):
    _reject_unknown(block, {"min", "max", "count"}, where)
    lo = _require_number(block, "min", where)
    hi = _require_number(block, "max", where)
    count = block.get("count")
    if not _is_int(count, 1):
        raise ConfigError(f"{where}.count must be a positive integer")
    if hi < lo:
        raise ConfigError(f"{where}: max < min")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def validate_config(raw: dict, path: str = "<config>") -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_unknown(
        raw, {"schema_version", "model", "params", "sweep", "numerics", "output"},
        "top level",
    )
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    model = raw.get("model")
    if model not in ("kerr", "dicke", "cavity"):
        raise ConfigError(f"model must be one of kerr/dicke/cavity, got {model!r}")
    params = raw.get("params")
    if not isinstance(params, dict):
        raise ConfigError("params block must be an object")
    _reject_unknown(params, _PARAM_KEYS[model], "params")
    for key in _PARAM_REQUIRED[model]:
        _require_number(params, key, "params", positive=key in ("u", "kappa", "E", "omega0", "omega"))
    if model == "dicke":
        if "gamma" in params:
            _require_number(params, "gamma", "params", positive=True)
        N = params.get("N", 1)
        if not isinstance(N, int) or isinstance(N, bool) or N < 1:
            raise ConfigError(f"params.N must be a positive integer, got {N!r}")

    sweep_block = raw.get("sweep", {})
    if not isinstance(sweep_block, dict):
        raise ConfigError("sweep block must be an object")
    _reject_unknown(sweep_block, _SWEEP_KEYS[model], "sweep")
    sweep = {}
    if model == "kerr":
        n_list = sweep_block.get("N_list")
        if (
            not isinstance(n_list, list)
            or not n_list
            or not all(_is_int(n, 1) for n in n_list)
        ):
            raise ConfigError("sweep.N_list must be a non-empty list of positive integers")
        eps_spec = sweep_block.get("eps")
        if not isinstance(eps_spec, dict):
            raise ConfigError("sweep.eps must be a min/max/count object")
        sweep = {"N_list": n_list, "eps_grid": _grid_spec(eps_spec, "sweep.eps")}
        if any(e < 0 for e in sweep["eps_grid"]):
            raise ConfigError("sweep.eps values must be >= 0")
    elif model == "dicke":
        lam_spec = sweep_block.get("lambda")
        if not isinstance(lam_spec, dict):
            raise ConfigError("sweep.lambda must be a min/max/count object")
        sweep = {"lambda_grid": _grid_spec(lam_spec, "sweep.lambda")}
        if any(l < 0 for l in sweep["lambda_grid"]):
            raise ConfigError("sweep.lambda values must be >= 0")

    numerics_block = raw.get("numerics", {})
    if not isinstance(numerics_block, dict):
        raise ConfigError("numerics block must be an object")
    _reject_unknown(numerics_block, set(_NUMERICS_DEFAULTS[model]), f"{model} numerics")
    numerics = {**_NUMERICS_DEFAULTS[model], **numerics_block}
    for key, val in numerics.items():
        if key in ("certify_cutoff", "compute_gap", "mc_validate", "timing"):
            if not isinstance(val, bool):
                raise ConfigError(f"numerics.{key} must be a boolean")
        elif key in ("mass_tol", "q_floor_ratio"):
            number = isinstance(val, (int, float)) and not isinstance(val, bool)
            if not number or not 0 <= val < math.inf:
                raise ConfigError(
                    f"numerics.{key} must be a finite non-negative number, got {val!r}"
                )
        elif key == "n_max":
            if val is not None and not _is_int(val, 2):
                raise ConfigError("numerics.n_max must be an integer >= 2")
        else:
            lowest = {
                "points_per_axis": MIN_POINTS_PER_AXIS, "mc_samples": 1, "seed": 0
            }[key]
            if not _is_int(val, lowest):
                raise ConfigError(
                    f"numerics.{key} must be an integer >= {lowest}, got {val!r}"
                )

    output = raw.get("output")
    if not isinstance(output, str) or not output:
        raise ConfigError("output must be a non-empty path string")
    return {
        "model": model,
        "params": params,
        "sweep": sweep,
        "numerics": numerics,
        "output": output,
        "raw": raw,
    }


# ---------------------------------------------------------------------------
# Row construction
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and math.isnan(value):
        return ""
    return format(float(value), ".17g")


def _budget_row(model, N, drive, budget, gap, beta, residual, n_max_used, wall):
    return {
        "model": model,
        "N": N,
        "eps_or_lambda": drive,
        "S": budget.S,
        "Phi_ext": budget.Phi_ext,
        "Phi_q": budget.Phi_q,
        "Pi_ext": budget.Pi_ext,
        "Pi_u": budget.Pi_u,
        "Pi_d": budget.Pi_d,
        "gap": gap,
        "alpha_re": budget.alpha.real,
        "alpha_im": budget.alpha.imag,
        "beta": beta,
        "residual": residual,
        "n_max_used": n_max_used,
        "wall_time_s": wall,
    }


def _run_kerr(cfg, keep_going, threads):
    from .kerr_model import sweep
    from .liouvillian import KerrParams

    p = cfg["params"]
    numerics = cfg["numerics"]
    result = sweep(
        KerrParams(p["delta"], p["u"], p["kappa"], 0.0, 1),
        cfg["sweep"]["N_list"],
        cfg["sweep"]["eps_grid"],
        points_per_axis=numerics["points_per_axis"],
        compute_gap=numerics["compute_gap"],
        threads=threads,
        timing=numerics["timing"],
        n_max=numerics["n_max"],
        mass_tol=numerics["mass_tol"],
        q_floor_ratio=numerics["q_floor_ratio"],
    )
    if result.failures and not keep_going:
        n, eps, msg = result.failures[0]
        raise WehrlFluxError(f"point N={n} eps={eps:.6g} failed: {msg}")
    rows = [
        _budget_row(
            "kerr", rec.N, rec.eps, rec.budget, rec.gap, None,
            rec.ness_residual, rec.n_max_used, rec.wall_time_s,
        )
        for rec in result.records
    ]
    return rows, result.failures


def _run_points(model, label, N, drives, keep_going, timing, solve):
    """Rows of a Gaussian model, one ``solve(drive) -> (budget, beta)`` each.

    A failure at one point, whatever its exception, is recorded with the
    exception's class in its message; without ``keep_going`` it ends the run.
    """
    rows, failures = [], []
    for drive in drives:
        start = time.perf_counter()
        try:
            budget, beta = solve(drive)
        except Exception as exc:
            msg = f"{type(exc).__name__}: {exc}"
            failures.append((N, drive, msg))
            if not keep_going:
                raise WehrlFluxError(f"point {label}={drive:.6g} failed: {msg}") from exc
            continue
        wall = (time.perf_counter() - start) if timing else 0.0
        rows.append(
            _budget_row(
                model, N, drive, budget, None, beta, budget.balance_rel, None, wall
            )
        )
    return rows, failures


def _run_cavity(cfg, keep_going):
    """The linear driven cavity: the one-mode Gaussian model G = 0, exact."""
    import numpy as np

    from .dicke_gaussian import drift_diffusion, gaussian_budget, solve_lyapunov

    kappa = cfg["params"]["kappa"]
    G, losses = np.zeros((2, 2)), (kappa,)

    def solve(E):
        sigma = solve_lyapunov(*drift_diffusion(G, losses))
        return gaussian_budget(sigma, G, losses, E / kappa, 1), None

    return _run_points(
        "cavity", "E", 1, [cfg["params"]["E"]], keep_going,
        cfg["numerics"]["timing"], solve,
    )


def _run_dicke(cfg, keep_going):
    from .dicke_gaussian import (
        DickeParams,
        critical_coupling,
        dicke_point,
        hamiltonian_quadratic_form,
        mc_gaussian_budget,
    )

    p = cfg["params"]
    numerics = cfg["numerics"]
    gamma = p.get("gamma", 1e-3 * p["kappa"])
    N = int(p.get("N", 1))
    lambda_c = None

    def solve(lam):
        nonlocal lambda_c
        params = DickeParams(p["omega0"], p["omega"], p["kappa"], lam, gamma)
        if lambda_c is None:
            lambda_c = critical_coupling(params)
        budget, sigma, hp, mf = dicke_point(params, N=N)
        if numerics["mc_validate"]:
            mc = mc_gaussian_budget(
                sigma, hamiltonian_quadratic_form(hp, params),
                (params.gamma, params.kappa),
                samples=numerics["mc_samples"], seed=numerics["seed"],
            )
            for name, closed, sampled in (
                ("S", budget.S, mc.S),
                ("Pi_d", budget.Pi_d, mc.Pi_d),
            ):
                if closed and abs(sampled - closed) / abs(closed) > 0.01:
                    raise WehrlFluxError(
                        f"MC check failed for {name} at lambda={lam:.6g}"
                    )
        return budget, mf.beta

    rows, failures = _run_points(
        "dicke", "lambda", N, cfg["sweep"]["lambda_grid"], keep_going,
        numerics["timing"], solve,
    )
    return rows, failures, lambda_c


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def write_results(path: str, rows, config_raw: dict, extra_header=()):
    payload = json.dumps(config_raw, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    lines = [
        "# wehrlflux results",
        f"# schema_version={SCHEMA_VERSION}",
        f"# code_version={__version__}",
        f"# config_sha256={digest}",
    ]
    lines.extend(extra_header)
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    text = "\n".join(lines) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_results(path: str):
    """Returns (rows as dicts with floats where possible, header comments)."""
    header_comments = []
    rows = []
    columns = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                header_comments.append(line)
                continue
            if columns is None:
                columns = line.split(",")
                if columns != CSV_COLUMNS:
                    raise ConfigError(
                        f"unexpected CSV schema in {path}: {columns}"
                    )
                continue
            parts = line.split(",")
            row = {}
            for key, val in zip(columns, parts):
                if val == "":
                    row[key] = None
                elif key == "model":
                    row[key] = val
                elif key in ("N", "n_max_used"):
                    row[key] = int(val)
                else:
                    row[key] = float(val)
            rows.append(row)
    if columns is None:
        raise ConfigError(f"{path} contains no data header")
    return rows, header_comments


def _header_value(header_comments, key):
    prefix = f"# {key}="
    for line in header_comments:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.threads is not None:
        source, text = "--threads", str(args.threads)
    else:
        source, text = "WEHRLFLUX_THREADS", os.environ.get("WEHRLFLUX_THREADS", "1")
    if not text.strip().isdecimal() or int(text) < 1:
        print(f"config error: {source} must be a positive integer, got {text!r}",
              file=sys.stderr)
        return EXIT_CONFIG
    threads = int(text)
    extra_header = []
    try:
        if cfg["model"] == "kerr":
            rows, failures = _run_kerr(cfg, args.keep_going, threads)
        elif cfg["model"] == "cavity":
            rows, failures = _run_cavity(cfg, args.keep_going)
        else:
            rows, failures, lambda_c = _run_dicke(cfg, args.keep_going)
            if lambda_c is not None:
                extra_header.append(f"# lambda_c={_fmt(lambda_c)}")
    except WehrlFluxError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        write_results(cfg["output"], rows, cfg["raw"], extra_header)
    except OSError as exc:
        print(f"I/O error writing {cfg['output']}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"{cfg['model']}: {len(rows)} point(s) written to {cfg['output']}"
        + (f", {len(failures)} failed" if failures else "")
    )
    for n, drive, msg in failures:
        print(f"  failed: N={n} drive={drive:.6g}: {msg}", file=sys.stderr)
    if failures and not args.keep_going:
        return EXIT_NUMERICAL
    return 0


def cmd_collapse(args) -> int:
    from .kerr_model import CollapsePoint, collapse_transform

    try:
        rows, _ = read_results(args.results)
    except (ConfigError, OSError) as exc:
        print(f"cannot read results: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    points = [
        CollapsePoint(r["N"], r["eps_or_lambda"], r["Pi_u"], r["Pi_d"])
        for r in rows
        if r["model"] in ("kerr", "cavity")
    ]
    if not points:
        print("no kerr rows in results file", file=sys.stderr)
        return EXIT_CONFIG
    result = collapse_transform(points, args.eps_c)
    print("x,Pi_u,Pi_d_over_N,N")
    for x, piu, pidn, n in result.rows:
        print(f"{_fmt(x)},{_fmt(piu)},{_fmt(pidn)},{n}")
    if not result.metrics:
        print("# collapse_metric=undefined (single N)")
    for (n1, n2), spread in sorted(result.metrics.items()):
        if spread is None:
            print(f"# collapse_metric N={n1}/{n2}: undefined (no x overlap)")
        else:
            print(
                f"# collapse_metric N={n1}/{n2}: "
                f"Pi_u={spread['Pi_u']:.6g} Pi_d_over_N={spread['Pi_d_over_N']:.6g}"
            )
    return 0


def cmd_fit_divergence(args) -> int:
    from .dicke_gaussian import DIVERGENCE_WINDOW, fit_power_law

    try:
        rows, header = read_results(args.results)
    except (ConfigError, OSError) as exc:
        print(f"cannot read results: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = [r for r in rows if r["model"] == "dicke"]
    if not rows:
        print("no dicke rows in results file", file=sys.stderr)
        return EXIT_CONFIG
    lambda_c = args.lambda_c
    if lambda_c is None:
        stamped = _header_value(header, "lambda_c")
        if stamped is None:
            print("results carry no lambda_c; pass --lambda-c", file=sys.stderr)
            return EXIT_CONFIG
        lambda_c = float(stamped)
    window = args.window if args.window is not None else DIVERGENCE_WINDOW
    lams = [r["eps_or_lambda"] for r in rows]
    pids = [r["Pi_d"] for r in rows]
    try:
        left, right = fit_power_law(lams, pids, lambda_c, window)
    except WehrlFluxError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"lambda_c={_fmt(lambda_c)}")
    print(f"window=[{window[0]:g},{window[1]:g}] (relative distance from lambda_c)")
    for name, (slope, err, npts) in (("left", left), ("right", right)):
        print(f"{name}: slope={slope:.6f} stderr={err:.6f} points={npts}")
    return 0


def _parse_window(text: str):
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("window must be 'lo,hi'") from exc
    if not 0 <= lo < hi:
        raise argparse.ArgumentTypeError("window must satisfy 0 <= lo < hi")
    return (lo, hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wehrlflux",
        description="Entropy production and flux for driven-dissipative steady states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run configuration")
    p_run.add_argument("config")
    p_run.add_argument("--keep-going", action="store_true",
                       help="record per-point failures and continue")
    p_run.add_argument("--threads", type=int, default=None,
                       help="worker processes (default WEHRLFLUX_THREADS or 1)")
    p_run.set_defaults(func=cmd_run)

    p_col = sub.add_parser("collapse", help="finite-size rescaling of a kerr sweep")
    p_col.add_argument("results")
    p_col.add_argument("--eps-c", type=float, required=True, dest="eps_c")
    p_col.set_defaults(func=cmd_collapse)

    p_fit = sub.add_parser("fit-divergence", help="log-log slopes of Pi_d near lambda_c")
    p_fit.add_argument("results")
    p_fit.add_argument("--window", type=_parse_window, default=None,
                       help="relative |lambda/lambda_c - 1| bounds, 'lo,hi' "
                            "(default: the package scaling window)")
    p_fit.add_argument("--lambda-c", type=float, default=None, dest="lambda_c")
    p_fit.set_defaults(func=cmd_fit_divergence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
