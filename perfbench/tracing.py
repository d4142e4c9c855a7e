"""Spans around the public functions of each wehrlflux layer.

usage: python3 perfbench/tracing.py SPANS_JSON ARGS...     (wehrlflux ARGS)

The child installs wrappers on module attributes before the CLI runs,
so calls through names that other modules imported (``kerr_model.
steady_state``, ``phase_space.mean_amplitude``, ``liouvillian.eigs``) and
the CLI's deferred imports are traced too.  Spans stay in memory and are
written to SPANS_JSON when the workload returns.  ``layer_metrics`` turns
the span files of one or more children into the per-layer metrics.

Importing this module starts nothing and does not import wehrlflux.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
import warnings

LAYERS = ("fock_algebra", "liouvillian", "phase_space", "kerr_model",
          "dicke_gaussian", "cli")


def cpu_seconds() -> float:
    """User+sys CPU of this process and the children it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


# Attributes recorded on a span once its call returns: f(args, kwargs, result).
def _liouvillian_size(args, kwargs, L):
    return {"dim": L.dim, "nnz": int(L.matrix.nnz)}


def _husimi_size(args, kwargs, field_):
    return {"dim": args[0].dim, "nodes": int(field_.grid.nodes.size)}


def _which(args, kwargs, result):
    return {"which": kwargs.get("which", "LM")}


def _balance(args, kwargs, budget):
    return {"balance_rel": budget.balance_rel}


def _dicke_balance(args, kwargs, result):
    return {"balance_rel": result[0].balance_rel}


def _samples(args, kwargs, mc):
    return {"samples": mc.samples}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _sweep_points(args, kwargs, result):
    return {"workers": kwargs.get("threads", 1),
            "point_s": [rec.wall_time_s for rec in result.records]}


# (module, attribute, post-hook); a dotted attribute is a method of a class.
# Besides the functions the metrics name, auto_grid and fit_power_law are
# wrapped so that their time counts in their own layer, not in the caller's.
TARGETS = (
    ("fock_algebra", "mean_photon_number", None),
    ("fock_algebra", "mean_amplitude", None),
    ("fock_algebra", "DensityMatrix.__post_init__", None),
    ("liouvillian", "build_kerr_liouvillian", _liouvillian_size),
    ("liouvillian", "steady_state", None),
    ("liouvillian", "liouvillian_gap", None),
    ("liouvillian", "eigs", _which),
    ("phase_space", "auto_grid", None),
    ("phase_space", "husimi_field", _husimi_size),
    ("phase_space", "entropy_budget", _balance),
    ("kerr_model", "sweep", _sweep_points),
    ("dicke_gaussian", "dicke_point", _dicke_balance),
    ("dicke_gaussian", "mc_gaussian_budget", _samples),
    ("dicke_gaussian", "fit_power_law", None),
    ("cli", "load_config", None),
    ("cli", "write_results", _csv_bytes),
)


class Tracer:
    """Spans [name, layer, start, end, parent, attrs] kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.warnings = dict.fromkeys(LAYERS + ("none",), 0)

    def wrap(self, name, layer, fn, post=None):
        track_cpu = name == "kerr_model.sweep"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            cpu0 = cpu_seconds() if track_cpu else 0.0
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if post is not None:
                span[5] = post(args, kwargs, result)
            if track_cpu:
                span[5]["cpu_s"] = cpu_seconds() - cpu0
            return result

        return wrapper

    def install(self):
        """Wrap every target wherever a wehrlflux module holds a reference."""
        import importlib

        modules = {
            layer: importlib.import_module(f"wehrlflux.{layer}") for layer in LAYERS
        }
        package = [m for k, m in sys.modules.items() if k.split(".")[0] == "wehrlflux"]
        for layer, attr, post in TARGETS:
            owner = modules[layer]
            *cls, attr_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            fn = getattr(owner, attr_name)
            wrapped = self.wrap(f"{layer}.{attr}", layer, fn, post)
            if cls:
                setattr(owner, attr_name, wrapped)
                continue
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)
        self._count_warnings()
        return modules

    def _count_warnings(self):
        show = warnings.showwarning

        def counting(message, category, filename, lineno, file=None, line=None):
            layer = self.spans[self.stack[-1]][1] if self.stack else "none"
            self.warnings[layer] += 1
            show(message, category, filename, lineno, file, line)

        # every occurrence, not once per code location
        warnings.simplefilter("always")
        warnings.showwarning = counting

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "warnings": self.warnings}, fh)


def main(argv) -> int:
    spans_path, *rest = argv
    tracer = Tracer()
    modules = tracer.install()
    entry = tracer.wrap("cli.main", "cli", modules["cli"].main)
    try:
        code = entry(rest)
    finally:
        tracer.dump(spans_path)
    return code


# ---------------------------------------------------------------------------
# Aggregation (runs in the benchmark process)
# ---------------------------------------------------------------------------

def sweep_metrics(sweeps) -> dict:
    """kerr_model metrics from sweep calls {wall_s, cpu_s, workers, point_s}."""
    wall = sum(s["wall_s"] for s in sweeps)
    busy = sum(sum(s["point_s"]) for s in sweeps)
    capacity = sum(s["workers"] * s["wall_s"] for s in sweeps)
    points = [t for s in sweeps for t in s["point_s"]]
    return {
        "kerr_model.sweep_s": wall,
        "kerr_model.pool_efficiency": busy / capacity if capacity else 0.0,
        "kerr_model.worker_cpu_s": sum(s["cpu_s"] for s in sweeps),
        "kerr_model.point_s_max": max(points, default=0.0),
    }


def layer_metrics(span_files) -> dict:
    """Per-layer metrics over the traced children whose span files are given."""
    spans, warns = [], dict.fromkeys(LAYERS, 0)
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        spans.append(data["spans"])
        for layer in LAYERS:
            warns[layer] += data["warnings"][layer]

    self_s = dict.fromkeys(LAYERS, 0.0)
    budget_self = 0.0
    incl, calls, attrs = {}, {}, {}
    for child in spans:
        covered = [0.0] * len(child)
        for name, layer, t0, t1, parent, _ in child:
            if parent >= 0:
                covered[parent] += t1 - t0
        for (name, layer, t0, t1, parent, at), cov in zip(child, covered):
            self_s[layer] += (t1 - t0) - cov
            if name == "phase_space.entropy_budget":
                budget_self += (t1 - t0) - cov
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            calls[name] = calls.get(name, 0) + 1
            attrs.setdefault(name, []).append((at, t1 - t0))

    def a(name, key):
        return [at[key] for at, _ in attrs.get(name, [])]

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    husimi_s = t("phase_space.husimi_field")
    # two complex (dim x dim) @ (dim x nodes) products per call, 8 real flops
    # per complex multiply-add: computed from sizes, not counted
    gflop = sum(
        16.0 * at["dim"] ** 2 * at["nodes"] for at, _ in attrs.get("phase_space.husimi_field", [])
    ) / 1e9
    mc_s = t("dicke_gaussian.mc_gaussian_budget")
    samples = sum(a("dicke_gaussian.mc_gaussian_budget", "samples"))
    sweeps = [
        {"wall_s": t1 - t0, "cpu_s": at["cpu_s"], "workers": at["workers"],
         "point_s": at["point_s"]}
        for child in spans for name, _, t0, t1, _, at in child if name == "kerr_model.sweep"
    ]

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "fock_algebra.moments_s": t("fock_algebra.mean_photon_number",
                                    "fock_algebra.mean_amplitude"),
        "fock_algebra.moments_calls": calls.get("fock_algebra.mean_photon_number", 0)
        + calls.get("fock_algebra.mean_amplitude", 0),
        "fock_algebra.density_matrix_s": t("fock_algebra.DensityMatrix.__post_init__"),
        "liouvillian.build_s": t("liouvillian.build_kerr_liouvillian"),
        "liouvillian.steady_state_s": t("liouvillian.steady_state"),
        "liouvillian.steady_state_calls": calls.get("liouvillian.steady_state", 0),
        "liouvillian.gap_s": t("liouvillian.liouvillian_gap"),
        "liouvillian.arpack_calls": calls.get("liouvillian.eigs", 0),
        "liouvillian.arpack_lr_s": sum(
            d for at, d in attrs.get("liouvillian.eigs", []) if at["which"] == "LR"
        ),
        "liouvillian.dim_max": max(a("liouvillian.build_kerr_liouvillian", "dim"), default=0),
        "liouvillian.nnz_max": max(a("liouvillian.build_kerr_liouvillian", "nnz"), default=0),
        "phase_space.husimi_s": husimi_s,
        "phase_space.husimi_nodes": sum(a("phase_space.husimi_field", "nodes")),
        "phase_space.husimi_gflop": gflop,
        "phase_space.husimi_gflop_per_s": gflop / husimi_s if husimi_s else 0.0,
        "phase_space.integrals_s": budget_self,
        "phase_space.warnings": warns["phase_space"],
        "phase_space.balance_rel_max": max(
            a("phase_space.entropy_budget", "balance_rel"), default=0.0
        ),
        "dicke_gaussian.point_s": t("dicke_gaussian.dicke_point"),
        "dicke_gaussian.mc_s": mc_s,
        "dicke_gaussian.mc_samples_per_s": samples / mc_s if mc_s else 0.0,
        "dicke_gaussian.balance_rel_max": max(
            a("dicke_gaussian.dicke_point", "balance_rel"), default=0.0
        ),
        "cli.load_config_s": t("cli.load_config"),
        "cli.write_results_s": t("cli.write_results"),
        "cli.csv_bytes": sum(a("cli.write_results", "bytes")),
        "trace.spans": sum(len(child) for child in spans),
    })
    m.update(sweep_metrics(sweeps))
    return m


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1:]))
