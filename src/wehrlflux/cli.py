"""Batch front door: validated JSON run configs in, CSV result tables out.

Subcommands:
    wehrlflux run <config.json> [--keep-going] [--threads K]
    wehrlflux collapse <results.csv> --eps-c <v>
    wehrlflux fit-divergence <results.csv> --window <lo,hi> [--lambda-c <v>]

Results are CSV with '#' comment headers carrying the schema version, a
hash of the config and the code version.  Floats are serialized with 17
significant digits, so written rows read back bit-exactly.  Identical
config produces byte-identical output for any thread count; per-point
wall time is only written when the config opts in, since live timings
would break that reproducibility.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .errors import ConfigError, WehrlFluxError

SCHEMA_VERSION = 1

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

CSV_COLUMNS = [
    "model", "N", "eps_or_lambda", "S", "Phi_ext", "Phi_q", "Pi_ext",
    "Pi_u", "Pi_d", "gap", "alpha_re", "alpha_im", "beta", "residual",
    "n_max_used", "wall_time_s",
]
# the columns a results row may leave blank; every other field is required
OPTIONAL_COLUMNS = ("gap", "beta", "n_max_used")

# Most points a sweep grid may hold, checked before its list is built; a
# grid of 10^6 takes about 40 MB, more than any config here needs.
MAX_GRID_COUNT = 10 ** 6

# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def load_config(path: str) -> dict:
    try:
        text = _read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past int()'s digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return validate_config(raw, path)


def _reject_unknown(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require_number(block: dict, key: str, where: str, positive=False):
    if key not in block:
        raise ConfigError(f"missing required key '{key}' in {where}")
    val = block[key]
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    # compared, not converted: an int beyond the float range is not finite
    if not (number and abs(val) <= sys.float_info.max):
        raise ConfigError(f"{where}.{key} must be a finite number, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"{where}.{key} must be positive, got {val}")
    return float(val)


def _is_int(val, lowest: int) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= lowest


def _is_size(val) -> bool:
    # each point takes N as a float, so N must lie in the float range
    return _is_int(val, 1) and val <= sys.float_info.max


def _grid_spec(block: dict, where: str):
    _reject_unknown(block, {"min", "max", "count"}, where)
    lo = _require_number(block, "min", where)
    hi = _require_number(block, "max", where)
    count = block.get("count")
    if not _is_int(count, 1):
        raise ConfigError(f"{where}.count must be a positive integer")
    if count > MAX_GRID_COUNT:
        raise ConfigError(f"{where}.count must be <= {MAX_GRID_COUNT}, got {count}")
    if hi < lo:
        raise ConfigError(f"{where}: max < min")
    if count == 1:
        if hi != lo:
            raise ConfigError(f"{where}.count must be > 1 when max != min")
        return [lo]
    step = (hi - lo) / (count - 1)
    grid = [lo + i * step for i in range(count)]
    # max == min, or a step below the values' resolution, would run a
    # point twice and write its row twice
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{where}: {count} points from min to max repeat a value")
    return grid


def validate_config(raw: dict, path: str = "<config>") -> dict:
    """The config ``raw`` checked against its model's entry in ``MODELS``:
    params with their defaults filled in, the sweep grids expanded, and
    every numerics key with its value or default."""
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
    if not isinstance(model, str) or model not in MODELS:
        raise ConfigError(f"model must be one of {'/'.join(MODELS)}, got {model!r}")
    spec = MODELS[model]

    block = raw.get("params")
    if not isinstance(block, dict):
        raise ConfigError("params block must be an object")
    _reject_unknown(block, set(spec["params"]), "params")
    params = dict(block)  # raw keeps the config as written, for its hash
    for key, rule in spec["params"].items():
        if key not in params and key in spec["defaults"]:
            params[key] = spec["defaults"][key](params)
        if rule != "size":
            _require_number(params, key, "params", positive=rule == "positive")
        elif not _is_size(params.get(key)):
            raise ConfigError(
                f"params.{key} must be a positive integer in the float range, "
                f"got {params.get(key)!r}"
            )

    block = raw.get("sweep", {})
    if not isinstance(block, dict):
        raise ConfigError("sweep block must be an object")
    _reject_unknown(block, set(spec["sweep"]), "sweep")
    sweep = {}
    for key, kind in spec["sweep"].items():
        where, value = f"sweep.{key}", block.get(key)
        if kind == "sizes":
            if not (isinstance(value, list) and value and all(map(_is_size, value))):
                raise ConfigError(
                    f"{where} must be a non-empty list of positive integers "
                    "in the float range"
                )
            if len(set(value)) < len(value):
                raise ConfigError(f"{where} repeats a size")
            sweep[key] = value
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a min/max/count object")
        grid = _grid_spec(value, where)
        if any(v < 0 for v in grid):
            raise ConfigError(f"{where} values must be >= 0")
        sweep[f"{key}_grid"] = grid

    block = raw.get("numerics", {})
    if not isinstance(block, dict):
        raise ConfigError("numerics block must be an object")
    accepted = {**spec["ignored"], **spec["numerics"]}
    _reject_unknown(block, set(accepted), f"{model} numerics")
    numerics = {}
    for key, (default, lowest) in accepted.items():
        val = numerics[key] = block.get(key, default)
        if lowest is None:
            if not isinstance(val, bool):
                raise ConfigError(f"numerics.{key} must be a boolean")
        elif not _is_int(val, lowest):
            raise ConfigError(f"numerics.{key} must be an integer >= {lowest}, got {val!r}")

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
    return format(float(value), ".17g")


def _budget_row(model, N, drive, budget, gap, beta, residual, n_max_used, wall):
    b = budget
    return dict(zip(CSV_COLUMNS, (
        model, N, drive, b.S, b.Phi_ext, b.Phi_q, b.Pi_ext, b.Pi_u, b.Pi_d, gap,
        b.alpha.real, b.alpha.imag, beta, residual, n_max_used, wall,
    )))


def _run_kerr(cfg, threads):
    """The Kerr sweep, its points in ``threads`` worker processes."""
    from .budget import KerrParams
    from .kerr_model import sweep

    p = cfg["params"]
    result = sweep(
        KerrParams(p["delta"], p["u"], p["kappa"], 0.0, 1),
        cfg["sweep"]["N_list"],
        cfg["sweep"]["eps_grid"],
        compute_gap=cfg["numerics"]["compute_gap"],
        threads=threads,
    )
    rows = [
        _budget_row(
            "kerr", rec.N, rec.eps, rec.budget, rec.gap, None,
            rec.ness_residual, rec.n_max_used, rec.wall_time_s,
        )
        for rec in result.records
    ]
    return rows, result.failures, []


def _run_points(model, N, drives, solve):
    """Rows of a Gaussian model, one ``solve(drive) -> (budget, beta)`` each,
    timed.  A failure at one point, whatever its exception, is recorded
    with the exception's class in its message, and the next point runs.
    """
    rows, failures = [], []
    for drive in drives:
        start = time.perf_counter()
        try:
            budget, beta = solve(drive)
        except Exception as exc:
            failures.append((N, drive, f"{type(exc).__name__}: {exc}"))
            continue
        wall = time.perf_counter() - start
        rows.append(
            _budget_row(
                model, N, drive, budget, None, beta, budget.balance_rel, None, wall
            )
        )
    return rows, failures


def _run_cavity(cfg, threads):
    """The linear driven cavity: the one-mode Gaussian model G = 0, exact."""
    import numpy as np

    from .dicke_gaussian import drift_diffusion, gaussian_budget, solve_lyapunov

    kappa = cfg["params"]["kappa"]
    G, losses = np.zeros((2, 2)), (kappa,)

    def solve(E):
        sigma = solve_lyapunov(*drift_diffusion(G, losses))
        return gaussian_budget(sigma, G, losses, E / kappa, 1), None

    rows, failures = _run_points("cavity", 1, [cfg["params"]["E"]], solve)
    return rows, failures, []


def _run_dicke(cfg, threads):
    """The Dicke scan, serial; its header stamps ``# lambda_c=``."""
    from .dicke_gaussian import DickeParams, critical_coupling, dicke_point

    p = cfg["params"]

    def params(lam):
        return DickeParams(p["omega0"], p["omega"], p["kappa"], lam, p["gamma"])

    def solve(lam):
        budget, _, _, mf = dicke_point(params(lam), N=p["N"])
        return budget, mf.beta

    rows, failures = _run_points("dicke", p["N"], cfg["sweep"]["lambda_grid"], solve)
    # lambda_c does not depend on the coupling; a file with no rows has
    # nothing to fit and carries no stamp
    if not rows:
        return rows, failures, []
    lambda_c = critical_coupling(params(0.0))
    if not (math.isfinite(lambda_c) and lambda_c > 0):
        raise WehrlFluxError(f"lambda_c = {lambda_c!r} is not a finite number > 0")
    return rows, failures, [f"# lambda_c={_fmt(lambda_c)}"]


# What each model reads from a config, and the runner that reads it;
# ``validate_config`` walks this table and nothing else.
#   run       (cfg, threads) -> (rows, failures, extra_header): a row per
#             solved point with its measured wall time and (N, drive, message)
#             per failed point, in (N, drive) order; ``cmd_run`` applies the flags.
#             A ``WehrlFluxError`` it raises fails the whole run
#   drive     the name of the swept drive in a failure's message
#   params    key -> "number" (finite), "positive" (finite, > 0) or "size"
#             (an integer >= 1 in the float range); a key without a default
#             is required
#   defaults  key -> default(params), given the params before the key
#   sweep     key -> "sizes", a list of "size" values, or "grid", a
#             min/max/count object of values >= 0, loaded as "<key>_grid"
#   numerics  key -> (default, least value), None for a boolean
#   ignored   schema-1 numerics keys that are validated and change
#             nothing; schema 2 deletes them here
MODELS = {
    "kerr": {
        "run": _run_kerr,
        "drive": "eps",
        "params": {"delta": "number", "u": "positive", "kappa": "positive"},
        "defaults": {},
        "sweep": {"N_list": "sizes", "eps": "grid"},
        "numerics": {"compute_gap": (True, None), "timing": (False, None)},
        "ignored": {
            # the budget runs on the polar grid; 64 is the frozen schema-1
            # bound of this key, not the setting of any grid
            "points_per_axis": (128, 64),
            # every point sizes its cutoff from its exact Fock tail
            "certify_cutoff": (True, None),
        },
    },
    "dicke": {
        "run": _run_dicke,
        "drive": "lambda",
        "params": {
            "omega0": "positive", "omega": "positive", "kappa": "positive",
            "gamma": "positive", "N": "size",
        },
        "defaults": {"gamma": lambda params: 1e-3 * params["kappa"], "N": lambda params: 1},
        "sweep": {"lambda": "grid"},
        "numerics": {"timing": (False, None)},
        # every Gaussian budget checks itself exactly and draws no samples
        "ignored": {
            "mc_validate": (False, None),
            "mc_samples": (10 ** 6, 1),
            "seed": (0, 0),
        },
    },
    "cavity": {
        "run": _run_cavity,
        "drive": "E",
        "params": {"E": "positive", "kappa": "positive"},
        "defaults": {},
        "sweep": {},
        "numerics": {"timing": (False, None)},
        "ignored": {},
    },
}


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def write_results(path: str, rows, config_raw: dict, extra_header=()):
    # imported here: only ``run`` writes a digest, and hashlib loads OpenSSL
    import hashlib
    import tempfile

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
    """Returns (rows as dicts of the model name and numbers, header comments).

    A row with the wrong number of fields, a blank field other than
    ``OPTIONAL_COLUMNS``, a number that does not parse or is not finite,
    an ``N`` below 1 or a stamped ``# lambda_c=`` that is not a finite
    number > 0 raises ``ConfigError`` naming ``path:line``; so does a file
    that is not UTF-8, naming the file.
    """
    header_comments = []
    rows = []
    columns = None
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[2:].partition("=")
            if key == "lambda_c" and not _positive_finite(value):
                raise ConfigError(
                    f"{path}:{lineno}: lambda_c must be a finite number > 0, "
                    f"got {value!r}"
                )
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
        if len(parts) != len(columns):
            raise ConfigError(
                f"{path}:{lineno}: {len(parts)} fields, expected {len(columns)}"
            )
        row = {}
        for key, val in zip(columns, parts):
            if val == "":
                if key not in OPTIONAL_COLUMNS:
                    raise ConfigError(f"{path}:{lineno}: {key} is blank")
                row[key] = None
                continue
            if key == "model":
                row[key] = val
                continue
            try:
                number = float(val)  # inf for an integer past the float range
                row[key] = int(val) if key in ("N", "n_max_used") else number
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: {key} = {val!r} is not a number"
                ) from None
            if not math.isfinite(number):
                raise ConfigError(f"{path}:{lineno}: {key} = {val!r} is not finite")
        if row["N"] < 1:
            raise ConfigError(f"{path}:{lineno}: N = {row['N']} must be >= 1")
        rows.append(row)
    if columns is None:
        raise ConfigError(f"{path} contains no data header")
    return rows, header_comments


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _fail_non_finite(rows, failures):
    """Moves to ``failures`` each row with a number ``read_results`` rejects
    as not finite, naming the columns, and returns the rest; None is blank."""
    kept = []
    for row in rows:
        bad = [
            f"{key}={row[key]!r}" for key in CSV_COLUMNS[2:]
            if row[key] is not None and not math.isfinite(row[key])
        ]
        if bad:
            failures.append((row["N"], row["eps_or_lambda"], f"not finite: {', '.join(bad)}"))
        else:
            kept.append(row)
    failures.sort(key=lambda failure: failure[:2])
    return kept


def cmd_run(args) -> int:
    """Runs the config's model and writes its CSV, the one place that applies
    the run flags: without ``--keep-going`` a failed point exits 3 naming the
    first failure and writes no CSV, and without ``numerics.timing`` every
    ``wall_time_s`` is written as 0.  A row with a number that is not finite
    in any column is a failed point, for every model; a ``WehrlFluxError``
    from the runner exits 3 and writes no CSV."""
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.threads < 1:
        print(f"config error: --threads must be a positive integer, got {args.threads}",
              file=sys.stderr)
        return EXIT_CONFIG
    spec = MODELS[cfg["model"]]
    try:
        rows, failures, extra_header = spec["run"](cfg, args.threads)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WehrlFluxError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    rows = _fail_non_finite(rows, failures)
    if failures and not args.keep_going:
        n, drive, msg = failures[0]
        print(f"numerical failure: point {spec['drive']}={drive:.6g} failed at N={n}: {msg}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    if not cfg["numerics"]["timing"]:
        for row in rows:
            row["wall_time_s"] = 0.0
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
    return 0


def cmd_collapse(args) -> int:
    from .collapse import CollapsePoint, collapse_transform

    try:
        rows, _ = read_results(args.results)
    except (ConfigError, OSError) as exc:
        print(f"cannot read results: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    points = [
        CollapsePoint(r["N"], r["eps_or_lambda"], r["Pi_u"], r["Pi_d"])
        for r in rows
        if r["model"] == "kerr"
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
    from .divergence import DIVERGENCE_WINDOW, fit_power_law

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
        stamped = [line for line in header if line.startswith("# lambda_c=")]
        if not stamped:
            print("results carry no lambda_c; pass --lambda-c", file=sys.stderr)
            return EXIT_CONFIG
        lambda_c = float(stamped[0].partition("=")[2])
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


def _positive_finite(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value > 0


def _parse_positive(text: str) -> float:
    if not _positive_finite(text):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return float(text)


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
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker processes (default 1)")
    p_run.set_defaults(func=cmd_run)

    p_col = sub.add_parser("collapse", help="finite-size rescaling of a kerr sweep")
    p_col.add_argument("results")
    p_col.add_argument("--eps-c", type=_parse_positive, required=True, dest="eps_c")
    p_col.set_defaults(func=cmd_collapse)

    p_fit = sub.add_parser("fit-divergence", help="log-log slopes of Pi_d near lambda_c")
    p_fit.add_argument("results")
    p_fit.add_argument("--window", type=_parse_window, default=None,
                       help="relative |lambda/lambda_c - 1| bounds, 'lo,hi' "
                            "(default: the package scaling window)")
    p_fit.add_argument("--lambda-c", type=_parse_positive, default=None, dest="lambda_c")
    p_fit.set_defaults(func=cmd_fit_divergence)
    return parser


def main(argv=None) -> int:
    # numpy loads with the first subcommand, after this line; its OpenBLAS
    # would otherwise start a pool of threads that every solve leaves idle
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    status = args.func(args)
    if argv is None:
        # the program exits next, and the interpreter's shutdown skips the
        # collections of frozen objects; imported here, not at module top,
        # so the import path stays as it is
        import gc

        gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(main())
