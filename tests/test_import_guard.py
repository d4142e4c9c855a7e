"""Only the Kerr solvers load scipy, and a serial Kerr run loads no more of
it than its points use.

Each entry point runs in a fresh interpreter, which then reports the
modules it imported: the CLI module and its parser, a Dicke run with the
estimator check, a cavity run, fit-divergence, collapse, the lazy
``collapse_transform`` export and a Kerr config that fails validation
load no scipy; a serial Kerr run loads neither ``scipy.special`` nor the
process pool.  The package's lazy exports are checked in this process.
"""

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
    assert "scipy" not in modules_loaded_after(
        run_cli(["fit-divergence", str(tmp_path / "dicke.csv")])
    )


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
    assert "scipy" not in modules_loaded_after(
        run_cli(["collapse", str(tmp_path / "kerr.csv"), "--eps-c", "0.94"])
    )


def test_collapse_export():
    assert "scipy" not in modules_loaded_after("from wehrlflux import collapse_transform")


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
