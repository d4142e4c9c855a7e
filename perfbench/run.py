"""wehrlflux benchmark: Kerr and Dicke workloads, end to end and by layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; every child process imports the
package from ``src/`` there.  A run repeats whole rounds of its workload
until ``--seconds`` have passed, checks every output, and prints as its last
stdout line one JSON object {correct, attempted, failed, metrics}.

  --trace 0  end-to-end metrics: setup_s, points_per_s, point_s_p50,
             cpu_s_per_point, peak_rss_mb.
  --trace 1  per-layer metrics: each round runs once untraced and once
             with spans around the public functions of every layer
             (tracing.py); the wall-time difference is the tracing overhead.

The BLAS thread count is never set; environment.py records it for every run.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import tracing

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
PY = sys.executable or "python3"
# Children still running this long after the run started are killed, so a
# run ends within the 180 s it is allowed.
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 9
SETUP_PROBE = "import wehrlflux.cli as c; c.build_parser()"

KERR = {"delta": -2.0, "u": 1.0, "kappa": 0.5}
# Three consecutive drives of the desk sweep's gap-stage grids
# (linspace(0.935, 0.975, 9), linspace(0.935, 0.960, 9), linspace(0.930,
# 0.952, 9)) around the grid minimum of the gap: (min, max) with count 3.
GAP_DRIVES = {10: (0.95, 0.96), 20: (0.94125, 0.9475), 30: (0.93825, 0.94375)}
DICKE = {"omega0": 0.005, "omega": 0.01, "kappa": 1.0, "gamma": 0.001}
DICKE_LAMBDA = {"min": 0.30, "max": 0.41, "count": 45}

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "point_s_p50": "s",
    "cpu_s_per_point": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "liouvillian.build_s": "s",
    "liouvillian.steady_state_s": "s",
    "liouvillian.steady_state_calls": "count",
    "liouvillian.gap_s": "s",
    "liouvillian.arpack_calls": "count",
    "liouvillian.arpack_lr_s": "s",
    "liouvillian.dim_max": "count",
    "liouvillian.nnz_max": "count",
    "phase_space.husimi_s": "s",
    "phase_space.husimi_nodes": "count",
    "phase_space.husimi_gflop": "GFLOP",
    "phase_space.husimi_gflop_per_s": "GFLOP/s",
    "phase_space.integrals_s": "s",
    "phase_space.warnings": "count",
    "phase_space.balance_rel_max": "ratio",
    "fock_algebra.moments_s": "s",
    "fock_algebra.moments_calls": "count",
    "fock_algebra.density_matrix_s": "s",
    "kerr_model.sweep_s": "s",
    "kerr_model.pool_efficiency": "ratio",
    "kerr_model.worker_cpu_s": "s",
    "kerr_model.point_s_max": "s",
    "dicke_gaussian.point_s": "s",
    "dicke_gaussian.mc_s": "s",
    "dicke_gaussian.mc_samples_per_s": "1/s",
    "dicke_gaussian.balance_rel_max": "ratio",
    "cli.load_config_s": "s",
    "cli.write_results_s": "s",
    "cli.csv_bytes": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path, deadline):
    """Run argv to completion or until the monotonic ``deadline``; returns
    (exit code, wall s, cpu s, max RSS kB).

    CPU and RSS come from wait4, so they cover the child and every worker
    it waited for.
    """
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def read_log(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Round:
    """What one round of a workload measured and produced."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    attempted: int = 0
    codes: list = field(default_factory=list)
    logs: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # span files of traced children
    rows: list = field(default_factory=list)
    header: list = field(default_factory=list)


class Workload:
    """One set of inputs; ``steps`` are the child commands of one round."""

    kerr = False

    def __init__(self, seed):
        self.dir = os.path.join(OUT, self.name)
        os.makedirs(self.dir, exist_ok=True)
        for name in os.listdir(self.dir):
            if name.startswith("spans_"):
                os.unlink(self.path(name))
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.rounds = 0
        self.prepare()

    def path(self, name):
        return os.path.join(self.dir, name)

    def command(self, args, traced, tag):
        """``wehrlflux ARGS``, or the same call inside the tracing child."""
        if traced:
            spans = self.path(f"spans_{self.rounds}_{tag}.json")
            return [PY, os.path.join(BENCH, "tracing.py"), spans, *args]
        return [PY, "-m", "wehrlflux.cli", *args]

    def run_round(self, traced=False) -> Round:
        r = Round()
        self.rounds += 1
        for out in self.outputs():
            if os.path.exists(out):
                os.unlink(out)
        start = time.perf_counter()
        for i, argv in enumerate(self.steps(traced)):
            log = self.path(f"step{i}.log")
            code, _, cpu, rss = run_child(argv, log, self.deadline)
            r.codes.append(code)
            r.logs.append(read_log(log))
            r.cpu += cpu
            r.rss_kb = max(r.rss_kb, rss)
            if traced:
                r.spans.append(argv[2])
        r.wall = time.perf_counter() - start
        self.collect(r)
        return r


class KerrGapSerial(Workload):
    name = "kerr_gap_serial"
    kerr = True

    def prepare(self):
        for n, (lo, hi) in GAP_DRIVES.items():
            write_json(self.path(f"config_N{n}.json"), {
                "schema_version": 1,
                "model": "kerr",
                "params": KERR,
                "sweep": {"N_list": [n], "eps": {"min": lo, "max": hi, "count": 3}},
                "numerics": {"certify_cutoff": False, "compute_gap": True,
                             "points_per_axis": 128, "timing": True},
                "output": self.path(f"gap_N{n}.csv"),
            })

    def outputs(self):
        return [self.path(f"gap_N{n}.csv") for n in GAP_DRIVES]

    def steps(self, traced):
        return [
            self.command(["run", self.path(f"config_N{n}.json"), "--threads", "1"],
                         traced, f"N{n}")
            for n in GAP_DRIVES
        ]

    def collect(self, r):
        r.attempted = 3 * len(GAP_DRIVES)
        for code, out in zip(r.codes, self.outputs()):
            if code == 0:
                r.rows.extend(checks.read_csv(out)[0])

    def check(self, r):
        return checks.gap_scaling(r.rows, KERR)


class DickeMcScan(Workload):
    name = "dicke_mc_scan"

    def prepare(self):
        write_json(self.path("config.json"), {
            "schema_version": 1,
            "model": "dicke",
            "params": DICKE,
            "sweep": {"lambda": DICKE_LAMBDA},
            "numerics": {"mc_validate": True, "timing": True, "seed": self.seed},
            "output": self.path("scan.csv"),
        })

    def outputs(self):
        return [self.path("scan.csv")]

    def steps(self, traced):
        return [
            self.command(["run", self.path("config.json")], traced, "run"),
            self.command(["fit-divergence", self.path("scan.csv")], traced, "fit"),
        ]

    def collect(self, r):
        r.attempted = DICKE_LAMBDA["count"]
        if r.codes[0] == 0:
            r.rows, r.header = checks.read_csv(self.outputs()[0])

    def check(self, r):
        return checks.dicke_scan(r.rows, r.header, DICKE, r.codes[0]) + \
            checks.divergence_fit(r.logs[1], r.codes[1])


WORKLOADS = {w.name: w for w in (KerrGapSerial, DickeMcScan)}


# ---------------------------------------------------------------------------
# Checks over a run
# ---------------------------------------------------------------------------

def _key(row):
    return {k: v for k, v in row.items() if k != "wall_time_s"}


def check_run(workload, rounds) -> list:
    """Workload checks on the first round; every later round, traced or
    not, must reproduce its rows exactly (the program is deterministic)."""
    first = rounds[0]
    failures = workload.check(first)
    for i, r in enumerate(rounds[1:], 1):
        if [_key(x) for x in r.rows] != [_key(x) for x in first.rows]:
            failures.append(f"round {i} rows differ from round 0")
    if workload.kerr and first.rows:
        spec = {"params": KERR, "points": [
            [int(x["N"]), x["eps_or_lambda"], int(x["n_max_used"])] for x in first.rows
        ]}
        src, dst = workload.path("photons_in.json"), workload.path("photons_out.json")
        write_json(src, spec)
        code, *_ = run_child([PY, os.path.join(BENCH, "photon_number.py"), src, dst],
                             workload.path("photons.log"), workload.deadline)
        if code != 0:
            return failures + [f"photon_number.py exited with {code}"]
        with open(dst, encoding="utf-8") as fh:
            photons = json.load(fh)
        for row, n_photon in zip(first.rows, photons):
            failures += checks.kerr_point(row, KERR["kappa"], n_photon)
    return failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def setup_seconds(workload) -> float:
    """Median wall time of fresh interpreters importing wehrlflux and
    building its CLI parser."""
    walls = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = run_child([PY, "-c", SETUP_PROBE], workload.path("setup.log"),
                                     workload.deadline)
        if code != 0:
            raise SystemExit(f"setup probe failed:\n{read_log(workload.path('setup.log'))}")
        walls.append(wall)
    return statistics.median(walls)


def end_to_end(rounds, setup_s) -> dict:
    points = sum(len(r.rows) for r in rounds)
    wall = sum(r.wall for r in rounds)
    point_s = [x["wall_time_s"] for r in rounds for x in r.rows]
    return {
        "setup_s": setup_s,
        "points_per_s": points / wall,
        "point_s_p50": statistics.median(point_s) if point_s else 0.0,
        "cpu_s_per_point": sum(r.cpu for r in rounds) / points if points else 0.0,
        "peak_rss_mb": max(r.rss_kb for r in rounds) / 1024.0,
    }


def per_layer(untraced, traced) -> dict:
    """Layer metrics of the traced rounds, and their overhead over the
    untraced rounds."""
    m = tracing.layer_metrics([p for r in traced for p in r.spans])
    t_wall = sum(r.wall for r in traced)
    u_wall = sum(r.wall for r in untraced)
    m["trace.wall_s"] = t_wall
    m["trace.untraced_wall_s"] = u_wall
    m["trace.overhead_pct"] = 100.0 * (t_wall / u_wall - 1.0)
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def environment(workload) -> dict:
    log = workload.path("environment.log")
    code, *_ = run_child([PY, os.path.join(BENCH, "environment.py")], log, workload.deadline)
    text = read_log(log)
    if code != 0:
        raise SystemExit(f"environment probe failed:\n{text}")
    env = json.loads(text.strip().splitlines()[-1])
    expected = os.path.join(ROOT, "src", "wehrlflux", "__init__.py")
    if os.path.realpath(env["wehrlflux"]) != os.path.realpath(expected):
        raise SystemExit(f"wehrlflux imported from {env['wehrlflux']}, not {expected}")
    return env


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wehrlflux", "__init__.py")):
        print(f"no wehrlflux source under {ROOT}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(workload)
    untraced, traced = [], []
    if args.trace:
        start = time.perf_counter()
        while True:
            untraced.append(workload.run_round())
            traced.append(workload.run_round(traced=True))
            if time.perf_counter() - start >= args.seconds:
                break
        metrics = per_layer(untraced, traced)
        units = PER_LAYER
    else:
        setup_s = setup_seconds(workload)
        start = time.perf_counter()
        while True:
            untraced.append(workload.run_round())
            if time.perf_counter() - start >= args.seconds:
                break
        metrics = end_to_end(untraced, setup_s)
        units = END_TO_END
    rounds = untraced + traced
    failures = check_run(workload, rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = attempted - sum(len(r.rows) for r in rounds)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    write_json(
        os.path.join(OUT, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"),
        {"args": vars(args), "environment": env, "rounds": len(rounds),
         "check_failures": failures, **result},
    )
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
