"""Kerr solves and sweep points run on one BLAS thread, whatever the caller set.

Every OpenBLAS copy the process loaded (numpy's and scipy's) is read and
set through its own thread-count functions.  The caller's count is raised
to 2 before each call, so a solver that did not pin itself would be seen
running on 2 threads, and must read 2 again once the call returns.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import kerr_params
from wehrlflux import _blas, kerr_model, liouvillian
from wehrlflux.kerr_model import sweep
from wehrlflux.kerr_state import recommended_cutoff
from wehrlflux.liouvillian import build_kerr_liouvillian, liouvillian_gap, steady_state

SRC = Path(__file__).resolve().parents[1] / "src"


def blas_threads():
    return tuple(get() for get, _ in _blas._libraries())


@pytest.fixture
def caller_at_two_threads():
    """Every loaded OpenBLAS set to 2 threads, as a caller might leave it;
    the counts found are put back afterwards."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        loaded = {
            line.split(maxsplit=5)[5].rstrip("\n")
            for line in fh if "openblas" in line.lower()
        }
    libs = _blas._libraries()
    assert loaded and len(libs) == len(loaded)
    saved = blas_threads()
    for _, set_ in libs:
        set_(2)
    yield
    for (_, set_), count in zip(libs, saved):
        set_(count)


def report_threads(*args, **kwargs):
    """Stands in for the steady-state solver: fails the sweep point with
    the BLAS thread counts it ran under."""
    raise RuntimeError(f"blas threads {blas_threads()}")


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_point_runs_on_one_thread(caller_at_two_threads, monkeypatch, threads):
    monkeypatch.setattr(kerr_model, "steady_state", report_threads)
    result = sweep(
        kerr_params(0.0, 1), [2], [0.5, 0.6], threads=threads, compute_gap=False
    )
    ones = str((1,) * len(blas_threads()))
    assert [f[2] for f in result.failures] == [f"RuntimeError: blas threads {ones}"] * 2
    assert blas_threads() == (2,) * len(blas_threads())


def test_solvers_run_on_one_thread(caller_at_two_threads, monkeypatch):
    seen = []

    def recording(real):
        def call(*args, **kwargs):
            seen.append((real.__name__, blas_threads()))
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(liouvillian, "_bordered_lu", recording(liouvillian._bordered_lu))
    monkeypatch.setattr(liouvillian, "_krylov_schur", recording(liouvillian._krylov_schur))
    p = kerr_params(0.9, 5)
    L = build_kerr_liouvillian(p, recommended_cutoff(p))
    steady_state(L)
    liouvillian_gap(L)
    ones = (1,) * len(blas_threads())
    assert seen == [("_bordered_lu", ones), ("_krylov_schur", ones)]
    assert blas_threads() == (2,) * len(blas_threads())


LATE_LOAD = """
import ctypes
import json
import sys

from wehrlflux import _blas
from wehrlflux.dicke_gaussian import DickeParams, dicke_point, hamiltonian_quadratic_form
from wehrlflux.dicke_gaussian import mc_gaussian_budget


def copies():
    # each loaded OpenBLAS's (get, set), looked up here, not through _blas
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({
            line.split(maxsplit=5)[5].rstrip("\\n")
            for line in fh if "openblas" in line.lower()
        })
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        get_name, set_name = next(n for n in _blas._SYMBOLS if hasattr(lib, n[0]))
        get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        out.append((get, set_))
    return out


def threads():
    return [get() for get, _ in copies()]


def set_all(count):
    for _, set_ in copies():
        set_(count)


assert "scipy" not in sys.modules
set_all(2)
p = DickeParams(0.005, 0.01, 1.0, 0.3, 1e-3)
_, sigma, hp, _ = dicke_point(p)
mc_gaussian_budget(sigma, hamiltonian_quadratic_form(hp, p), (p.gamma, p.kappa), samples=10)

from wehrlflux import kerr_state, liouvillian  # loads scipy's copy
from wehrlflux.budget import KerrParams

set_all(2)
seen = []


def recording(real):
    def call(*args, **kwargs):
        seen.append([real.__name__, threads()])
        return real(*args, **kwargs)
    return call


liouvillian._bordered_lu = recording(liouvillian._bordered_lu)
liouvillian._krylov_schur = recording(liouvillian._krylov_schur)
params = KerrParams(-2.0, 1.0, 0.5, 0.9, 5)
L = liouvillian.build_kerr_liouvillian(params, kerr_state.recommended_cutoff(params))
liouvillian.steady_state(L)
liouvillian.liouvillian_gap(L)
print(json.dumps({"copies": len(copies()), "seen": seen, "after": threads()}))
"""


def test_pin_covers_copies_loaded_after_first_call():
    # the Dicke call pins numpy's copy alone; scipy's copy, loaded later
    # with the Kerr modules, must be pinned by the Kerr solves all the same
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", LATE_LOAD], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["copies"] == 2
    assert report["seen"] == [["_bordered_lu", [1, 1]], ["_krylov_schur", [1, 1]]]
    assert report["after"] == [2, 2]


SPACED_COPY = """
import ctypes
import json
import shutil
import sys
from pathlib import Path

from wehrlflux import _blas, kerr_state, liouvillian
from wehrlflux.budget import KerrParams


def loaded():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return sorted({
            line.split(maxsplit=5)[5].rstrip("\\n")
            for line in fh if "openblas" in line.lower()
        })


original = loaded()[0]
copy = str(Path(sys.argv[1]) / Path(original).name)
shutil.copy(original, copy)
ctypes.CDLL(copy)
assert copy in loaded()

libs = _blas._libraries()
for _, set_ in libs:
    set_(2)
seen = []
real = liouvillian._bordered_lu


def recording(*args, **kwargs):
    seen.append([get() for get, _ in libs])
    return real(*args, **kwargs)


liouvillian._bordered_lu = recording
params = KerrParams(-2.0, 1.0, 0.5, 0.9, 2)
L = liouvillian.build_kerr_liouvillian(params, kerr_state.recommended_cutoff(params))
liouvillian.steady_state(L)
print(json.dumps({
    "copies": len(loaded()), "libs": len(libs), "seen": seen,
    "after": [get() for get, _ in libs],
}))
"""


def test_pin_reads_library_paths_with_spaces(tmp_path):
    # a maps line ends in a path that may hold spaces; a copy of the
    # loaded OpenBLAS under such a path must be found and pinned
    spaced = tmp_path / "blas copy"
    spaced.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SPACED_COPY, str(spaced)], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    n = report["copies"]
    assert n >= 2 and report["libs"] == n
    assert report["seen"] == [[1] * n]
    assert report["after"] == [2] * n


def test_csv_independent_of_blas_threads(tmp_path):
    # near eps_c the LU result moves in its last digits with the BLAS
    # thread count unless every solve pins it; the Dicke scan runs the
    # whole Gaussian pipeline and its estimator check on numpy's BLAS
    configs = {
        "kerr": {
            "schema_version": 1,
            "model": "kerr",
            "params": {"delta": -2.0, "u": 1.0, "kappa": 0.5},
            "sweep": {"N_list": [5], "eps": {"min": 0.9, "max": 0.95, "count": 2}},
            "numerics": {"certify_cutoff": False, "compute_gap": True,
                         "points_per_axis": 64},
        },
        "dicke": {
            "schema_version": 1,
            "model": "dicke",
            "params": {"omega0": 0.005, "omega": 0.01, "kappa": 1.0, "gamma": 0.001},
            "sweep": {"lambda": {"min": 0.30, "max": 0.41, "count": 45}},
            "numerics": {"mc_validate": True},
        },
    }
    for model, cfg in configs.items():
        config = tmp_path / f"{model}.json"
        config.write_text(json.dumps({**cfg, "output": str(tmp_path / f"{model}.csv")}))
        outputs = []
        for count in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=count)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC), env.get("PYTHONPATH")])
            )
            subprocess.run(
                [sys.executable, "-m", "wehrlflux.cli", "run", str(config)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            outputs.append(tmp_path / f"{model}_{count}.csv")
            shutil.move(tmp_path / f"{model}.csv", outputs[-1])
        assert outputs[0].read_bytes() == outputs[1].read_bytes(), model


TASKS_AFTER_RUN = """
import os
import sys

from wehrlflux.cli import main

assert "numpy" not in sys.modules
code = main(["run", sys.argv[1]])
print(code, os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task")))
"""


def test_cli_run_starts_no_idle_blas_threads(tmp_path):
    # cli.main sets OPENBLAS_NUM_THREADS=1 before numpy loads, so a Dicke
    # run ends with its main thread alone; a caller's own value is kept
    config = tmp_path / "dicke.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "model": "dicke",
        "params": {"omega0": 0.005, "omega": 0.01, "kappa": 1.0, "gamma": 0.001},
        "sweep": {"lambda": {"min": 0.30, "max": 0.41, "count": 5}},
        "output": str(tmp_path / "dicke.csv"),
    }))
    for caller, expected in ((None, "1"), ("2", "2")):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if caller is not None:
            env["OPENBLAS_NUM_THREADS"] = caller
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", TASKS_AFTER_RUN, str(config)], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        code, value, tasks = out.stdout.split()[-3:]
        assert (code, value) == ("0", expected)
        if caller is None:
            assert tasks == "1"
