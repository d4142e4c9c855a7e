"""Only the Kerr solvers load scipy, a serial Kerr run loads no more of it
than its points use, the power-law fit and the Kerr parameters load no
numpy, only ``run`` loads OpenSSL, and the package's imports are acyclic.

Each entry point runs in a fresh interpreter, which then reports the
modules it imported: the CLI module and its parser, a Dicke run with the
estimator check, a cavity run, fit-divergence, collapse, the lazy
``collapse_transform`` export, ``fock_algebra``, ``phase_space``,
``kerr_state``, the lazy ``KerrParams``, ``entropy_budget`` and Kerr
closed-form exports and a Kerr config that fails validation load no
scipy; fit-divergence, ``KerrParams`` from ``budget`` and the lazy
``fit_power_law`` export load no numpy either; fit-divergence and
collapse load no ``_hashlib``, which only ``run`` needs for its config
digest; a serial Kerr run loads neither ``scipy.special`` nor the
process pool; building a generator at the rule's cutoff loads neither
the sweep nor the Husimi layer.  The package's lazy exports and its
import graph, read from the source of every module, are checked in this
process.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wehrlflux
from wehrlflux.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

DICKE = {
    "schema_version": 1,
    "model": "dicke",
    "params": {"omega0": 0.005, "omega": 0.01, "kappa": 1.0, "gamma": 0.001},
    "sweep": {"lambda": {"min": 0.30, "max": 0.41, "count": 45}},
    "numerics": {"mc_validate": True},
}
# points_per_axis below the schema-1 bound of 64: exit 2 before any Kerr work
BAD_KERR = {
    "schema_version": 1,
    "model": "kerr",
    "params": {"delta": -2.0, "u": 1.0, "kappa": 0.5},
    "sweep": {"N_list": [10], "eps": {"min": 0.9, "max": 0.9, "count": 1}},
    "numerics": {"points_per_axis": 10},
}
# the smallest Kerr sweep: one point, no gap
KERR = {
    "schema_version": 1,
    "model": "kerr",
    "params": {"delta": -2.0, "u": 1.0, "kappa": 0.5},
    "sweep": {"N_list": [2], "eps": {"min": 0.9, "max": 0.9, "count": 1}},
    "numerics": {"compute_gap": False},
}
CAVITY = {
    "schema_version": 1,
    "model": "cavity",
    "params": {"E": 1.0, "kappa": 0.5},
}


def modules_loaded_after(code: str) -> set:
    """Run ``code`` in a fresh interpreter; the names in its ``sys.modules``
    once ``code`` has returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    report = "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code + report],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def run_cli(args, code=0) -> str:
    return f"from wehrlflux.cli import main\nassert main({args!r}) == {code}"


def write_config(tmp_path, cfg, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**cfg, "output": str(tmp_path / f"{name}.csv")}))
    return str(path)


def test_cli_import_and_parser():
    loaded = modules_loaded_after("import wehrlflux.cli as c\nc.build_parser()")
    assert "scipy" not in loaded


@pytest.mark.parametrize("cfg", [DICKE, CAVITY], ids=["dicke", "cavity"])
def test_gaussian_run(tmp_path, cfg):
    config = write_config(tmp_path, cfg, cfg["model"])
    assert "scipy" not in modules_loaded_after(run_cli(["run", config]))


def test_fit_divergence(tmp_path):
    assert main(["run", write_config(tmp_path, DICKE, "dicke")]) == 0
    loaded = modules_loaded_after(run_cli(["fit-divergence", str(tmp_path / "dicke.csv")]))
    assert "scipy" not in loaded
    assert "numpy" not in loaded
    assert "_hashlib" not in loaded


def test_rejected_kerr_config(tmp_path):
    config = write_config(tmp_path, BAD_KERR, "kerr")
    assert "scipy" not in modules_loaded_after(run_cli(["run", config], code=2))


def test_serial_kerr_run_loads_neither_special_nor_the_pool(tmp_path):
    config = write_config(tmp_path, KERR, "kerr")
    loaded = modules_loaded_after(run_cli(["run", config, "--threads", "1"]))
    assert "scipy" in loaded
    assert "scipy.special" not in loaded
    assert "concurrent.futures.process" not in loaded


def test_collapse(tmp_path):
    assert main(["run", write_config(tmp_path, KERR, "kerr")]) == 0
    loaded = modules_loaded_after(
        run_cli(["collapse", str(tmp_path / "kerr.csv"), "--eps-c", "0.94"])
    )
    assert "scipy" not in loaded
    assert "_hashlib" not in loaded


def test_collapse_export():
    assert "scipy" not in modules_loaded_after("from wehrlflux import collapse_transform")


def test_fit_power_law_export():
    assert "numpy" not in modules_loaded_after("from wehrlflux import fit_power_law")


def test_fock_algebra():
    assert "scipy" not in modules_loaded_after("import wehrlflux.fock_algebra")


def test_phase_space():
    assert "scipy" not in modules_loaded_after("import wehrlflux.phase_space")


def test_kerr_params():
    loaded = modules_loaded_after("from wehrlflux.budget import KerrParams")
    assert "scipy" not in loaded
    assert "numpy" not in loaded


def test_kerr_budget_exports():
    loaded = modules_loaded_after("from wehrlflux import KerrParams, entropy_budget")
    assert "scipy" not in loaded


def test_generator_reexports_kerr_params():
    # perfbench/photon_number.py reads KerrParams from the generator's module
    from wehrlflux import budget, liouvillian

    assert liouvillian.KerrParams is budget.KerrParams


def test_kerr_state():
    assert "scipy" not in modules_loaded_after("import wehrlflux.kerr_state")


def test_kerr_closed_form_exports():
    loaded = modules_loaded_after(
        "from wehrlflux import bistability_window, mean_field_curve,"
        " photon_number_distribution, recommended_cutoff"
    )
    assert "scipy" not in loaded


def test_generator_loads_neither_the_sweep_nor_the_husimi_layer():
    loaded = modules_loaded_after(
        "from wehrlflux.budget import KerrParams\n"
        "from wehrlflux.kerr_state import recommended_cutoff\n"
        "from wehrlflux.liouvillian import build_kerr_liouvillian\n"
        "p = KerrParams(-2.0, 1.0, 0.5, 0.9, 5)\n"
        "build_kerr_liouvillian(p, recommended_cutoff(p))"
    )
    assert "wehrlflux.liouvillian" in loaded
    assert "wehrlflux.kerr_model" not in loaded
    assert "wehrlflux.phase_space" not in loaded


def relative_imports(path: Path) -> set:
    """The package modules that ``path`` imports relatively, at module top
    or inside a function; ``from . import name`` is the submodule ``name``
    if there is one, else ``__init__``."""
    modules = {f.stem for f in path.parent.glob("*.py")}
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module:
            out.add(node.module.split(".")[0])
        else:
            out.update(a.name if a.name in modules else "__init__" for a in node.names)
    return out


def import_cycle(graph: dict) -> list | None:
    """One cycle of ``graph`` (module -> imported modules) as a path whose
    first and last entries are equal, or None if the graph is acyclic."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            cycle = visit(nxt)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return None


def test_import_cycle_finder():
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]


def test_package_imports_are_acyclic():
    graph = {f.stem: relative_imports(f) for f in (SRC / "wehrlflux").glob("*.py")}
    assert "__init__" in graph["cli"]  # cli reads __version__ from the package
    cycle = import_cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_kerr_modules_do_load_scipy():
    # the guard above can fail: a Kerr module brings scipy in
    assert "scipy" in modules_loaded_after("import wehrlflux.liouvillian")


def test_exports_resolve_and_are_listed():
    listed = dir(wehrlflux)
    for name in wehrlflux.__all__:
        assert name in listed
        value = getattr(wehrlflux, name)
        assert value.__name__ == name
        assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        wehrlflux.no_such_name
