"""The benchmark's inputs must stay valid for the package.

``perfbench/run.py`` writes one JSON config per run step of each workload,
and ``perfbench/photon_number.py`` re-solves the Kerr points of a run
through the Liouvillian API.  Both are loaded here from their files: every
config a workload's ``prepare`` writes must pass ``cli.load_config``, and
the photon-number check must run at a small N.  A removed config key or a
changed signature then fails here instead of in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from wehrlflux import kerr_model
from wehrlflux.budget import KerrParams
from wehrlflux.cli import load_config
from wehrlflux.fock_algebra import mean_photon_number
from wehrlflux.liouvillian import build_kerr_liouvillian, steady_state

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(name, monkeypatch):
    """perfbench/<name>.py as a module, registered while the test runs (its
    dataclasses look their module up in sys.modules)."""
    path = BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def run_module(monkeypatch):
    # run.py imports its sibling modules checks and tracing by name
    monkeypatch.syspath_prepend(str(BENCH))
    return load_bench_module("run", monkeypatch)


def test_workload_configs_load(run_module, monkeypatch, tmp_path):
    monkeypatch.setattr(run_module, "OUT", str(tmp_path))
    assert run_module.WORKLOADS
    for name, workload_class in run_module.WORKLOADS.items():
        configs = sorted(Path(workload_class(seed=1).dir).glob("config*.json"))
        assert configs, name
        for path in configs:
            load_config(str(path))


def test_gap_drives_keep_the_rule(run_module, monkeypatch, tmp_path):
    # near eps_c the state's exact tail (54 / 89 / 121-122 levels) is
    # shorter than the rule (60 / 105-106 / 148-149), so every
    # kerr_gap_serial row keeps the rule's cutoff
    monkeypatch.setattr(run_module, "OUT", str(tmp_path))
    workload = run_module.WORKLOADS["kerr_gap_serial"](seed=1)
    configs = sorted(Path(workload.dir).glob("config*.json"))
    drives = []
    for path in configs:
        config = load_config(str(path))
        for N in config["sweep"]["N_list"]:
            for eps in config["sweep"]["eps_grid"]:
                drives.append(KerrParams(**config["params"], eps=eps, N=N))
    assert len(drives) == 9
    for p in drives:
        assert kerr_model._tail_cutoff(p) < kerr_model.recommended_cutoff(p)


def test_photon_number_check_runs(monkeypatch, tmp_path):
    photon_number = load_bench_module("photon_number", monkeypatch)
    params = {"delta": -2.0, "u": 1.0, "kappa": 0.5}
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps({"params": params, "points": [[2, 0.9, 12]]}))
    assert photon_number.main([str(src), str(dst)]) == 0
    (n_mean,) = json.loads(dst.read_text())
    p = KerrParams(params["delta"], params["u"], params["kappa"], 0.9, 2)
    rho = steady_state(build_kerr_liouvillian(p, 12, enforce_cutoff=False))
    assert n_mean == pytest.approx(mean_photon_number(rho), rel=1e-12)
