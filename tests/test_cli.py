import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wehrlflux.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    MODELS,
    _run_points,
    load_config,
    main,
    read_results,
    validate_config,
    write_results,
)
from wehrlflux import cli, dicke_gaussian, kerr_model
from wehrlflux.errors import ConfigError, SolverConvergenceError

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def cavity_config(tmp_path, out_name="out.csv", **numerics):
    return {
        "schema_version": 1,
        "model": "cavity",
        "params": {"E": 1.0, "kappa": 0.5},
        "numerics": numerics,
        "output": str(tmp_path / out_name),
    }


def kerr_config(tmp_path, out_name="kerr.csv"):
    return {
        "schema_version": 1,
        "model": "kerr",
        "params": {"delta": -2.0, "u": 1.0, "kappa": 0.5},
        "sweep": {"N_list": [2, 3], "eps": {"min": 0.5, "max": 0.7, "count": 2}},
        "numerics": {
            "certify_cutoff": False,
            "compute_gap": False,
            "points_per_axis": 64,
        },
        "output": str(tmp_path / out_name),
    }


def dicke_config(tmp_path, lo, hi, count, out_name="dicke.csv", **numerics):
    return {
        "schema_version": 1,
        "model": "dicke",
        "params": {"omega0": 0.005, "omega": 0.01, "kappa": 1.0, "gamma": 1e-3},
        "sweep": {"lambda": {"min": lo, "max": hi, "count": count}},
        "numerics": numerics,
        "output": str(tmp_path / out_name),
    }


LAMBDA_C = 0.5 * math.sqrt((0.005 / 0.01) * (1.0 + 0.01 ** 2))

# the smallest run of each model, with every numerics key at its default
SMALL_CONFIGS = {
    "kerr": lambda tmp_path: {
        "schema_version": 1,
        "model": "kerr",
        "params": {"delta": -2.0, "u": 1.0, "kappa": 0.5},
        "sweep": {"N_list": [1], "eps": {"min": 0.5, "max": 0.7, "count": 2}},
        "numerics": {"compute_gap": False},
        "output": str(tmp_path / "kerr.csv"),
    },
    "dicke": lambda tmp_path: dicke_config(tmp_path, 0.30, 0.34, 3),
    "cavity": cavity_config,
}


class TestConfigValidation:
    def test_malformed_json_is_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n "model": "kerr",\n broken\n}\n')
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad.json:3:" in err

    def test_integer_past_digit_limit_is_a_config_error(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for
        # an integer literal longer than int()'s 4300-digit limit
        text = json.dumps(cavity_config(tmp_path)).replace('"E": 1.0', '"E": 1' + "0" * 5000)
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "c.json: invalid JSON" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = cavity_config(tmp_path)
        cfg["params"]["detuning"] = 1.0
        with pytest.raises(ConfigError, match="detuning"):
            load_config(write_config(tmp_path / "c.json", cfg))

    def test_unknown_numerics_key_rejected(self, tmp_path):
        cfg = cavity_config(tmp_path)
        cfg["numerics"]["grid"] = 32
        with pytest.raises(ConfigError, match="grid"):
            load_config(write_config(tmp_path / "c.json", cfg))

    def test_missing_required_param(self, tmp_path):
        cfg = cavity_config(tmp_path)
        del cfg["params"]["kappa"]
        with pytest.raises(ConfigError, match="kappa"):
            load_config(write_config(tmp_path / "c.json", cfg))

    def test_schema_version_enforced(self, tmp_path):
        cfg = cavity_config(tmp_path)
        cfg["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write_config(tmp_path / "c.json", cfg))

    def test_grid_spec_expansion(self, tmp_path):
        cfg = dicke_config(tmp_path, 0.1, 0.2, 3)
        loaded = load_config(write_config(tmp_path / "c.json", cfg))
        assert loaded["sweep"]["lambda_grid"] == pytest.approx([0.1, 0.15, 0.2])

    def test_single_point_grid(self, tmp_path):
        cfg = dicke_config(tmp_path, 0.3, 0.3, 1)
        loaded = load_config(write_config(tmp_path / "c.json", cfg))
        assert loaded["sweep"]["lambda_grid"] == [0.3]

    @pytest.mark.parametrize(
        "key, value", [("gamma", 0), ("gamma", "small"), ("N", 0), ("N", 2.5)]
    )
    def test_dicke_optional_params_validated(self, tmp_path, capsys, key, value):
        cfg = dicke_config(tmp_path, 0.3, 0.31, 2)
        cfg["params"][key] = value
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == EXIT_CONFIG
        assert f"params.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, key, value, argv, named",
        [
            ("dicke", "numerics.mc_samples", 0, [], "mc_samples"),
            ("dicke", "numerics.seed", -1, [], "seed"),
            ("dicke", "numerics.seed", 1.5, [], "seed"),
            ("kerr", "numerics.points_per_axis", 10, [], "points_per_axis"),
            ("kerr", "numerics.mass_tol", -1e-6, [], "mass_tol"),
            ("kerr", "numerics.mass_tol", "tight", [], "mass_tol"),
            ("kerr", "numerics.mass_tol", math.inf, [], "mass_tol"),
            ("kerr", "numerics.q_floor_ratio", -1e-14, [], "q_floor_ratio"),
            ("kerr", "numerics.q_floor_ratio", None, [], "q_floor_ratio"),
            ("kerr", "numerics.mass_tol", 1e-6, [], "mass_tol"),
            ("kerr", "numerics.q_floor_ratio", 1e-14, [], "q_floor_ratio"),
            ("dicke", "numerics.balance_tol", 1e-2, [], "balance_tol"),
            ("kerr", "numerics.certify_cutoff", "yes", [], "certify_cutoff"),
            ("dicke", None, None, ["--threads", "-3"], "--threads"),
            ("kerr", "params.delta", math.nan, [], "params.delta"),
            ("cavity", "params.E", math.inf, [], "params.E"),
            ("dicke", "params.omega0", math.nan, [], "params.omega0"),
            ("kerr", "sweep.eps.min", math.nan, [], "sweep.eps.min"),
            ("kerr", "sweep.N_list", [True], [], "sweep.N_list"),
            ("kerr", "sweep.eps.count", True, [], "sweep.eps.count"),
            ("kerr", "numerics.mc_samples", 10, [], "mc_samples"),
            ("dicke", "numerics.points_per_axis", 128, [], "points_per_axis"),
            ("dicke", "numerics.compute_gap", False, [], "compute_gap"),
            ("cavity", "numerics.compute_gap", False, [], "compute_gap"),
            ("cavity", "numerics.seed", 1, [], "seed"),
            ("kerr", "numerics.n_max", 60, [], "n_max"),
            ("kerr", "sweep.eps.count", 1, [], "sweep.eps.count"),
            ("dicke", "sweep.lambda.count", 1, [], "sweep.lambda.count"),
            ("cavity", "params.E", 10 ** 400, [], "params.E"),
            ("dicke", "sweep.lambda.max", 10 ** 400, [], "sweep.lambda.max"),
            ("dicke", "sweep.lambda.count", 10 ** 400, [], "sweep.lambda.count"),
            ("dicke", "params.N", 10 ** 400, [], "params.N"),
            ("kerr", "sweep.N_list", [2, 10 ** 400], [], "sweep.N_list"),
            ("kerr", "model", "spin", [], "model must be one of"),
            ("kerr", "params", "x", [], "params block"),
            ("kerr", "sweep", "x", [], "sweep block"),
            ("kerr", "numerics", "x", [], "numerics block"),
            ("kerr", "sweep.eps", [0.5, 0.7], [], "sweep.eps must be a min/max/count"),
            ("kerr", "sweep.eps.max", 0.4, [], "sweep.eps: max < min"),
            ("dicke", "sweep.lambda.min", -0.1, [], "sweep.lambda values must be >= 0"),
            ("kerr", "sweep.eps", {"min": 0.9, "max": 0.9, "count": 4}, [],
             "sweep.eps: 4 points from min to max repeat a value"),
            ("dicke", "sweep.lambda.max", 0.3, [],
             "sweep.lambda: 2 points from min to max repeat a value"),
            # max one ulp above min: the three points round to two values
            ("kerr", "sweep.eps", {"min": 0.9, "max": 0.9000000000000001, "count": 3}, [],
             "sweep.eps: 3 points from min to max repeat a value"),
            ("kerr", "sweep.N_list", [2, 2], [], "sweep.N_list repeats a size"),
            ("kerr", "sweep.N_list", [2, 3, 2], [], "sweep.N_list repeats a size"),
        ],
        ids=[
            "mc_samples-0", "seed-negative", "seed-fraction", "points_per_axis-10",
            "mass_tol-negative", "mass_tol-text", "mass_tol-infinite",
            "q_floor_ratio-negative", "q_floor_ratio-null",
            "kerr-reads-no-mass_tol", "kerr-reads-no-q_floor_ratio", "balance_tol-removed",
            "certify_cutoff-text", "threads-negative",
            "kerr-delta-nan", "cavity-E-infinite", "dicke-omega0-nan",
            "eps-min-nan", "N_list-bool", "eps-count-bool",
            "kerr-reads-no-mc_samples", "dicke-reads-no-points_per_axis",
            "dicke-reads-no-compute_gap", "cavity-reads-no-compute_gap",
            "cavity-reads-no-seed", "kerr-reads-no-n_max", "eps-count-1-wide",
            "lambda-count-1-wide", "cavity-E-beyond-float", "lambda-max-beyond-float",
            "lambda-count-beyond-float", "dicke-N-beyond-float", "N_list-beyond-float",
            "model-unknown", "params-not-object", "sweep-not-object",
            "numerics-not-object", "eps-not-grid", "eps-max-below-min", "lambda-negative",
            "eps-max-equals-min", "lambda-max-equals-min", "eps-step-below-resolution",
            "N_list-repeated", "N_list-repeated-apart",
        ],
    )
    def test_invalid_run_inputs_exit_config(
        self, tmp_path, capsys, model, key, value, argv, named
    ):
        cfg = {
            "kerr": kerr_config,
            "dicke": lambda path: dicke_config(path, 0.3, 0.31, 2),
            "cavity": cavity_config,
        }[model](tmp_path)
        if key is not None:
            *parents, leaf = key.split(".")
            block = cfg
            for name in parents:
                block = block.setdefault(name, {})
            block[leaf] = value
        code = main(["run", write_config(tmp_path / "c.json", cfg), *argv])
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not Path(cfg["output"]).exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[]", "top level must be an object"),
            (json.dumps({"schema_version": 1, "model": "cavity",
                         "params": {"E": 1.0, "kappa": 0.5}, "output": ""}),
             "output must be a non-empty path"),
        ],
        ids=["top-level-list", "output-empty"],
    )
    def test_config_shape_exits_config(self, tmp_path, capsys, text, named):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("certify", [True, False])
    def test_certify_cutoff_still_accepted(self, tmp_path, certify):
        # schema-1 configs keep the key; every Kerr point checks its own
        # Fock tail whatever it says
        cfg = kerr_config(tmp_path)
        cfg["numerics"]["certify_cutoff"] = certify
        loaded = load_config(write_config(tmp_path / "c.json", cfg))
        assert loaded["numerics"]["certify_cutoff"] is certify

    def test_grid_count_bounded_before_allocation(self, tmp_path, capsys, monkeypatch):
        # one point past the bound exits 2 before the grid's list is built
        def no_run(*args):
            raise AssertionError("a grid past the bound reached its run")

        monkeypatch.setitem(MODELS["dicke"], "run", no_run)
        cfg = dicke_config(tmp_path, 0.0, 1.0, cli.MAX_GRID_COUNT + 1)
        path = write_config(tmp_path / "c.json", cfg)
        tracemalloc.start()
        try:
            code = main(["run", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"sweep.lambda.count must be <= {cli.MAX_GRID_COUNT}" in err
        assert peak < 10 ** 6  # the list of 10^6 + 1 floats takes about 40 MB

    @pytest.mark.parametrize(
        "model, key",
        [(model, key) for model, spec in MODELS.items() for key in spec["ignored"]],
        ids=lambda value: value,
    )
    def test_ignored_key_changes_nothing(self, tmp_path, model, key):
        # a valid value other than the default writes the same rows
        default, lowest = MODELS[model]["ignored"][key]
        value = (not default) if lowest is None else default + 1
        files = []
        for name, numerics in (("default", {}), ("set", {key: value})):
            cfg = SMALL_CONFIGS[model](tmp_path / name)
            cfg["numerics"].update(numerics)
            assert main(["run", write_config(tmp_path / f"{name}.json", cfg)]) == 0
            lines = Path(cfg["output"]).read_bytes().splitlines(keepends=True)
            files.append([l for l in lines if not l.startswith(b"# config_sha256=")])
        assert files[0] == files[1]

    def test_readme_tables_the_numerics_keys(self):
        # README holds one table per model, "| key | default | value | use |",
        # whose use is "read" or "ignored: <why>"
        text = README.read_text()
        for model, spec in MODELS.items():
            heading = rf"^`{model}`:\n\n\|.*\n\|[-|]+\|\n((?:\|.*\n)+)"
            listed = {"read": {}, "ignored": {}}
            for row in re.search(heading, text, re.M).group(1).splitlines():
                key, default, value, use = (c.strip(" `") for c in row.strip("|").split("|"))
                lowest = None if value == "boolean" else int(value.split(">=")[1])
                listed[re.match(r"\w+", use).group()][key] = (json.loads(default), lowest)
            assert listed == {"read": spec["numerics"], "ignored": spec["ignored"]}, model

    def test_readme_configs_validate(self):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        assert blocks
        for block in blocks:
            validate_config(json.loads(block), "README.md")

    def test_readme_python_example_runs(self, capsys):
        (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines()[-1] == "4.0"  # as its comment says


class TestRun:
    def test_cavity_pipeline(self, tmp_path, capsys):
        cfg = cavity_config(tmp_path)
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        rows, header = read_results(cfg["output"])
        assert len(rows) == 1
        row = rows[0]
        assert row["model"] == "cavity"
        # the one-mode Gaussian: exact coherent state alpha = E / kappa
        assert row["S"] == 1.0 + math.log(math.pi)
        assert row["Phi_ext"] == row["Pi_ext"] == 4.0
        assert row["alpha_re"] == 2.0
        assert row["alpha_im"] == row["Phi_q"] == row["Pi_u"] == row["Pi_d"] == 0.0
        assert row["residual"] == 0.0
        assert row["gap"] is None and row["n_max_used"] is None and row["beta"] is None
        assert row["wall_time_s"] == 0.0
        assert any(line.startswith("# config_sha256=") for line in header)

    def test_kerr_rows_sorted_and_complete(self, tmp_path):
        cfg = kerr_config(tmp_path)
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        rows, _ = read_results(cfg["output"])
        assert len(rows) == 4
        keys = [(r["N"], r["eps_or_lambda"]) for r in rows]
        assert keys == sorted(keys)
        assert all(r["beta"] is None for r in rows)
        assert all(np.isfinite(r["S"]) for r in rows)

    def test_dicke_run_stamps_lambda_c(self, tmp_path):
        cfg = dicke_config(tmp_path, 0.30, 0.40, 11)
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        rows, header = read_results(cfg["output"])
        assert len(rows) == 11
        stamped = [l for l in header if l.startswith("# lambda_c=")]
        assert float(stamped[0].split("=")[1]) == pytest.approx(LAMBDA_C, rel=1e-12)
        assert all(r["gap"] is None and r["n_max_used"] is None for r in rows)

    def test_weak_coupling_run_keeps_stderr_empty(self, tmp_path):
        # a process of its own, so that an unhandled log warning reaches
        # stderr; as the coupling, and Phi_q with it, goes to 0 the Gaussian
        # balance residual is roundoff, not a warning
        cfg = dicke_config(tmp_path, 0.0, 1e-5, 3)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "wehrlflux.cli", "run",
             write_config(tmp_path / "c.json", cfg)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0
        assert out.stderr == ""
        assert len(read_results(cfg["output"])[0]) == 3

    def test_mc_validate_failure_exit_code(self, tmp_path, monkeypatch):
        cfg = dicke_config(tmp_path, 0.30, 0.32, 2, mc_validate=True)
        InjectedFaults(monkeypatch, skewed={0.32}, term="Pi_d")
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == EXIT_NUMERICAL

    def test_keep_going_records_failures(self, tmp_path, capsys, monkeypatch):
        cfg = dicke_config(tmp_path, 0.30, 0.32, 2, mc_validate=True)
        InjectedFaults(monkeypatch, skewed={0.32}, term="Pi_d")
        code = main(["run", write_config(tmp_path / "c.json", cfg), "--keep-going"])
        assert code == 0
        assert "1 failed" in capsys.readouterr().out
        assert len(read_results(cfg["output"])[0]) == 1

    @pytest.mark.parametrize("keep_going", [False, True])
    def test_dicke_point_exception_recorded(self, tmp_path, capsys, keep_going):
        # kappa ** 2 overflows in critical_coupling at every coupling
        cfg = dicke_config(tmp_path, 0.30, 0.32, 2)
        cfg["params"]["kappa"] = 1e200
        argv = ["run", write_config(tmp_path / "c.json", cfg)]
        code = main(argv + ["--keep-going"] * keep_going)
        err = capsys.readouterr().err
        if keep_going:
            assert code == 0
            assert read_results(cfg["output"])[0] == []
            assert err.count("OverflowError") == 2
        else:
            assert code == EXIT_NUMERICAL
            assert "OverflowError" in err
            assert not (tmp_path / "dicke.csv").exists()

    @pytest.mark.parametrize("keep_going", [False, True])
    def test_non_finite_row_fails_its_point(self, tmp_path, capsys, keep_going):
        # E / kappa overflows, so alpha, Phi_ext and Pi_ext are inf
        cfg = cavity_config(tmp_path)
        cfg["params"] = {"E": 1e300, "kappa": 1e-10}
        argv = ["run", write_config(tmp_path / "c.json", cfg)]
        code = main(argv + ["--keep-going"] * keep_going)
        err = capsys.readouterr().err
        assert "not finite: Phi_ext=inf, Pi_ext=inf, alpha_re=inf" in err
        if keep_going:
            assert code == 0
            assert read_results(cfg["output"])[0] == []
        else:
            assert code == EXIT_NUMERICAL
            assert "numerical failure: point E=1e+300 failed at N=1: not finite: " in err
            assert not Path(cfg["output"]).exists()

    @pytest.mark.parametrize("keep_going", [False, True])
    @pytest.mark.parametrize(
        "model, column, value",
        [("kerr", "gap", math.inf), ("kerr", "n_max_used", math.nan),
         ("dicke", "beta", -math.inf)],
    )
    def test_non_finite_optional_column_fails_its_point(
        self, tmp_path, capsys, monkeypatch, model, column, value, keep_going
    ):
        # a column that may be blank (None: not computed) may not be
        # non-finite either; the first row's point fails, the rest are written
        real_run = MODELS[model]["run"]
        solved = []

        def run(cfg, threads):
            rows, failures, header = real_run(cfg, threads)
            rows[0][column] = value
            solved.extend(row["eps_or_lambda"] for row in rows)
            return rows, failures, header

        monkeypatch.setitem(MODELS[model], "run", run)
        cfg = SMALL_CONFIGS[model](tmp_path)
        argv = ["run", write_config(tmp_path / "c.json", cfg)]
        code = main(argv + ["--keep-going"] * keep_going)
        err = capsys.readouterr().err
        named = f"not finite: {column}={value!r}"
        drive = f"{solved[0]:.6g}"
        if keep_going:
            assert code == 0
            assert f"failed: N=1 drive={drive}: {named}" in err
            rows = read_results(cfg["output"])[0]
            assert [row["eps_or_lambda"] for row in rows] == solved[1:]
        else:
            assert code == EXIT_NUMERICAL
            assert f"point {MODELS[model]['drive']}={drive} failed at N=1: {named}" in err
            assert not Path(cfg["output"]).exists()

    @pytest.mark.parametrize("keep_going", [False, True])
    def test_non_finite_lambda_c_fails_the_run(self, tmp_path, capsys, keep_going):
        # omega0 / omega overflows in lambda_c, while every point solves
        cfg = dicke_config(tmp_path, 0.30, 0.32, 2)
        cfg["params"].update(omega0=1e10, omega=1e-300)
        argv = ["run", write_config(tmp_path / "c.json", cfg)]
        assert main(argv + ["--keep-going"] * keep_going) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure: lambda_c = inf is not a finite number > 0" in err
        assert not Path(cfg["output"]).exists()

    def test_cavity_check_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        skew_means(monkeypatch, "S")
        cfg = cavity_config(tmp_path)
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == EXIT_NUMERICAL
        assert "estimator check failed for S (" in capsys.readouterr().err
        assert not Path(cfg["output"]).exists()

    @pytest.mark.logs_warning  # the injected point failures are logged
    @pytest.mark.parametrize("keep_going", [False, True])
    def test_kerr_failures_applied_by_the_command(
        self, tmp_path, capsys, monkeypatch, keep_going
    ):
        # (3, 0.5) fails before (2, 0.7) in sweep order, after it in (N, eps)
        # order; either way every point is attempted
        attempted = fail_kerr_points(monkeypatch, {(3, 0.5), (2, 0.7)})
        cfg = kerr_config(tmp_path)
        argv = ["run", write_config(tmp_path / "c.json", cfg)]
        code = main(argv + ["--keep-going"] * keep_going)
        err = capsys.readouterr().err
        assert sorted(attempted) == [(2, 0.5), (2, 0.7), (3, 0.5), (3, 0.7)]
        if keep_going:
            assert code == 0
            assert failed_drives(err) == [0.7, 0.5]
            assert "failed: N=2 drive=0.7: SolverConvergenceError: injected" in err
            rows = read_results(cfg["output"])[0]
            assert [(r["N"], r["eps_or_lambda"]) for r in rows] == [(2, 0.5), (3, 0.7)]
        else:
            assert code == EXIT_NUMERICAL
            assert ("numerical failure: point eps=0.7 failed at N=2: "
                    "SolverConvergenceError: injected at N=2 eps=0.7") in err
            assert not Path(cfg["output"]).exists()

    def test_dicke_points_after_a_failure_attempted(self, tmp_path, capsys, monkeypatch):
        attempted = []
        real_point = dicke_gaussian.dicke_point

        def point(p, N=1):
            attempted.append(round(p.lam, 6))
            return real_point(p, N=N)

        monkeypatch.setattr(dicke_gaussian, "dicke_point", point)
        skew_means(monkeypatch, "Pi_d", lambda: attempted[-1] == 0.31)
        cfg = dicke_config(tmp_path, 0.30, 0.34, 5)
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == EXIT_NUMERICAL
        assert "point lambda=0.31 failed at N=1: WehrlFluxError: " in capsys.readouterr().err
        assert attempted == [0.30, 0.31, 0.32, 0.33, 0.34]
        assert not Path(cfg["output"]).exists()

    @pytest.mark.parametrize("timing", [False, True])
    def test_wall_times_written_only_with_timing(self, tmp_path, monkeypatch, timing):
        # the sweep always measures; the command writes the times or zeros
        records = []
        real_sweep = kerr_model.sweep

        def spy(*args, **kwargs):
            result = real_sweep(*args, **kwargs)
            records.extend(result.records)
            return result

        monkeypatch.setattr(kerr_model, "sweep", spy)
        cfg = kerr_config(tmp_path)
        cfg["numerics"]["timing"] = timing
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        walls = [r["wall_time_s"] for r in read_results(cfg["output"])[0]]
        assert len(records) == 4 and all(rec.wall_time_s > 0 for rec in records)
        assert walls == ([rec.wall_time_s for rec in records] if timing else [0.0] * 4)

    @pytest.mark.parametrize("model", ["dicke", "cavity"])
    def test_gaussian_wall_times_written_with_timing(self, tmp_path, model):
        cfg = SMALL_CONFIGS[model](tmp_path)
        cfg["numerics"]["timing"] = True
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        assert all(r["wall_time_s"] > 0 for r in read_results(cfg["output"])[0])

    def test_io_error_exit_code(self, tmp_path, capsys):
        cfg = cavity_config(tmp_path)
        cfg["output"] = "/dev/null/cannot/exist.csv"
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == EXIT_IO


def skew_means(monkeypatch, term, skewed=lambda: True):
    """Wraps the exact means that ``gaussian_budget`` checks its closed form
    against: while ``skewed()`` holds, their ``term`` is 1e-6 relative off."""
    real_means = dicke_gaussian._exact_means

    def means(*args):
        out = real_means(*args)
        if skewed():
            out[term] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(dicke_gaussian, "_exact_means", means)


def fail_kerr_points(monkeypatch, points):
    """Makes each Kerr sweep point (N, eps) in ``points`` raise; returns the
    list of points the sweep attempts, eps rounded to 6 digits."""
    real = kerr_model.steady_state_certified
    attempted = []

    def certified(p):
        point = (p.N, round(p.eps, 6))
        attempted.append(point)
        if point in points:
            raise SolverConvergenceError(f"injected at N={p.N} eps={p.eps:g}")
        return real(p)

    monkeypatch.setattr(kerr_model, "steady_state_certified", certified)
    return attempted


class InjectedFaults:
    """Wraps the Dicke pipeline.

    It raises at the couplings in ``closed``; at those in ``skewed`` the
    check inside the point's budget sees its ``term`` 1e-6 relative off.
    Couplings are rounded to 6 digits.
    """

    def __init__(self, monkeypatch, closed=(), skewed=(), term="Pi_u"):
        real_point = dicke_gaussian.dicke_point
        current = []

        def point(p, N=1):
            lam = round(p.lam, 6)
            if lam in closed:
                raise SolverConvergenceError(f"injected at {lam}")
            current[:] = [lam]
            return real_point(p, N=N)

        monkeypatch.setattr(dicke_gaussian, "dicke_point", point)
        skew_means(monkeypatch, term, lambda: current[0] in skewed)


def failed_drives(err):
    return [
        float(line.split("drive=")[1].split(":")[0])
        for line in err.splitlines()
        if line.startswith("  failed:")
    ]


class TestDickeMonteCarloCheck:
    """Every point's closed form against the exact means of the
    Monte-Carlo estimators, to roundoff, whatever ``mc_validate`` says."""

    @pytest.mark.parametrize(
        "term", [None, "S", "Pi_d", "Pi_u", "Phi_q", "Phi_q_b", "Pi_d_b"]
    )
    def test_every_sampled_term_checked(self, tmp_path, capsys, monkeypatch, term):
        # one coupling on each side of lambda_c, both skewed by 1e-6
        cfg = dicke_config(tmp_path, 0.30, 0.40, 2, mc_validate=True)
        InjectedFaults(monkeypatch, skewed={0.3, 0.4} if term else (), term=term)
        argv = ["run", write_config(tmp_path / "c.json", cfg), "--keep-going"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        rows = read_results(cfg["output"])[0]
        if term is None:
            assert len(rows) == 2 and not failed_drives(err)
        else:
            assert rows == []
            assert failed_drives(err) == pytest.approx([0.3, 0.4], abs=1e-12)
            named = re.findall(r"estimator check failed for (\w+) \(", err)
            assert named == [term, term]

    @pytest.mark.parametrize(
        "numerics", [{}, {"mc_validate": False}], ids=["absent", "false"]
    )
    def test_checked_without_mc_validate(self, tmp_path, capsys, monkeypatch, numerics):
        cfg = dicke_config(tmp_path, 0.30, 0.32, 2, **numerics)
        InjectedFaults(monkeypatch, skewed={0.32}, term="Pi_d")
        argv = ["run", write_config(tmp_path / "c.json", cfg), "--keep-going"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert failed_drives(err) == pytest.approx([0.32], abs=1e-12)
        assert re.findall(r"estimator check failed for (\w+) \(", err) == ["Pi_d"]
        assert len(read_results(cfg["output"])[0]) == 1

    def test_weak_coupling_within_standard_errors(self, tmp_path):
        # far below lambda_c, Pi_u, Phi_q and Phi_q_b are about 2e-6 and at
        # lambda = 0 they vanish; the bound's gross flux keeps them checked
        cfg = dicke_config(tmp_path, 0.0, 0.002, 3, mc_validate=True)
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        lams = [r["eps_or_lambda"] for r in read_results(cfg["output"])[0]]
        assert lams == pytest.approx([0.0, 0.001, 0.002], abs=1e-15)

    def test_failed_point_recorded_and_next_runs(self):
        # the runner reports every failure; only the command ends a run
        def solve(drive):
            raise ValueError(f"injected at {drive}")

        rows, failures = _run_points("dicke", 1, [0.1, 0.2], solve)
        assert rows == []
        assert failures == [
            (1, 0.1, "ValueError: injected at 0.1"),
            (1, 0.2, "ValueError: injected at 0.2"),
        ]

    @pytest.mark.parametrize(
        "closed, skewed, first",
        [({0.32}, {0.31, 0.33}, 0.31), ({0.31}, {0.33}, 0.31), ({0.33}, {0.32}, 0.32)],
        ids=["oracle-first", "closed-form-first", "oracle-then-closed-form"],
    )
    @pytest.mark.parametrize("keep_going", [False, True])
    def test_failures_in_lambda_order(
        self, tmp_path, capsys, monkeypatch, closed, skewed, first, keep_going
    ):
        # "oracle" failures are points whose check fails, "closed-form"
        # failures points whose closed form raises
        cfg = dicke_config(tmp_path, 0.30, 0.34, 5, mc_validate=True)
        InjectedFaults(monkeypatch, closed=closed, skewed=skewed)
        argv = ["run", write_config(tmp_path / "c.json", cfg)]
        code = main(argv + ["--keep-going"] * keep_going)
        err = capsys.readouterr().err
        bad = sorted(closed | skewed)
        if keep_going:
            assert code == 0
            assert failed_drives(err) == pytest.approx(bad, abs=1e-12)
            lams = [r["eps_or_lambda"] for r in read_results(cfg["output"])[0]]
            good = [l for l in (0.30, 0.31, 0.32, 0.33, 0.34) if l not in bad]
            assert lams == pytest.approx(good, abs=1e-12)
        else:
            assert code == EXIT_NUMERICAL
            assert f"point lambda={first:g} failed" in err
            assert not (tmp_path / "dicke.csv").exists()

    def test_check_leaves_rows_unchanged(self, tmp_path):
        # the benchmark scan with mc_validate true and false: the files
        # differ only in the config hash
        files = []
        for validate in (True, False):
            cfg = dicke_config(
                tmp_path, 0.30, 0.41, 45, f"{validate}.csv", mc_validate=validate
            )
            assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
            lines = Path(cfg["output"]).read_bytes().splitlines(keepends=True)
            files.append([l for l in lines if not l.startswith(b"# config_sha256=")])
        assert files[0] == files[1]
        assert len(files[0]) == 4 + 1 + 45  # comments, column names, rows


class TestDeterminism:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rows = []
        values = [1.0 / 3.0, 1e-17, -math.pi, 2.0 ** -52, 1234567.89012345678]
        for i, v in enumerate(values):
            rows.append(
                {
                    "model": "kerr", "N": i + 1, "eps_or_lambda": v, "S": v * 3,
                    "Phi_ext": v, "Phi_q": v, "Pi_ext": v, "Pi_u": -v, "Pi_d": v,
                    "gap": v, "alpha_re": v, "alpha_im": -v, "beta": None,
                    "residual": v, "n_max_used": 10, "wall_time_s": 0.0,
                }
            )
        path = tmp_path / "rt.csv"
        write_results(str(path), rows, {"probe": True})
        back, _ = read_results(str(path))
        for row, orig in zip(back, rows):
            for key in CSV_COLUMNS:
                assert row[key] == orig[key], key

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg1 = kerr_config(tmp_path, "a.csv")
        cfg2 = kerr_config(tmp_path, "b.csv")
        p1 = write_config(tmp_path / "c1.json", cfg1)
        p2 = write_config(tmp_path / "c2.json", cfg2)
        assert main(["run", p1, "--threads", "1"]) == 0
        assert main(["run", p2, "--threads", "2"]) == 0
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        # identical data regardless of thread count; headers differ only in
        # the config hash (output path differs), so compare data sections
        a_data = a.split(b"\n", 5)[-1]
        b_data = b.split(b"\n", 5)[-1]
        assert a_data == b_data

    def test_same_config_twice_identical_files(self, tmp_path):
        cfg = cavity_config(tmp_path, "x.csv")
        p = write_config(tmp_path / "c.json", cfg)
        assert main(["run", p]) == 0
        first = (tmp_path / "x.csv").read_bytes()
        assert main(["run", p]) == 0
        assert (tmp_path / "x.csv").read_bytes() == first


class TestProgramExit:
    def test_library_call_keeps_collection(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["run", write_config(tmp_path / "c.json", cavity_config(tmp_path))]) == 0
        assert gc.get_freeze_count() == before

    def test_program_freezes_after_the_command(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json", cavity_config(tmp_path))
        monkeypatch.setattr(sys, "argv", ["wehrlflux", "run", cfg])
        before = gc.get_freeze_count()
        try:
            assert main() == 0
            assert gc.get_freeze_count() > before
        finally:
            gc.unfreeze()


def write_collapse_rows(path, sizes, eps_c):
    """Kerr rows that collapse exactly: Pi_u = tanh(x), Pi_d = N exp(-x^2)."""
    rows = []
    for N in sizes:
        for x in np.linspace(-2, 2, 17):
            eps = eps_c * (1 + x / N)
            rows.append(
                {
                    "model": "kerr", "N": N, "eps_or_lambda": eps,
                    "S": 1.0, "Phi_ext": 1.0, "Phi_q": 1.0, "Pi_ext": 1.0,
                    "Pi_u": float(np.tanh(x)), "Pi_d": float(N * np.exp(-x**2)),
                    "gap": 0.1, "alpha_re": 0.0, "alpha_im": 0.0, "beta": None,
                    "residual": 0.0, "n_max_used": 8, "wall_time_s": 0.0,
                }
            )
    write_results(str(path), rows, {})
    return str(path)


def set_field(name, value):
    """An edit of a results row that sets its field ``name`` to ``value``."""
    def edit(line):
        parts = line.split(",")
        parts[CSV_COLUMNS.index(name)] = value
        return ",".join(parts)
    return edit


class TestCollapseCommand:
    def test_single_size_metric_undefined(self, tmp_path, capsys):
        path = write_collapse_rows(tmp_path / "sweep.csv", (10,), 0.94)
        assert main(["collapse", path, "--eps-c", "0.94"]) == 0
        out = capsys.readouterr().out
        assert "undefined" in out

    def test_cavity_rows_rejected(self, tmp_path, capsys):
        cfg = cavity_config(tmp_path)
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == 0
        assert main(["collapse", cfg["output"], "--eps-c", "1.0"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "no kerr rows in results file" in captured.err
        assert "x,Pi_u" not in captured.out

    def test_synthetic_rows_collapse(self, tmp_path, capsys):
        eps_c = 0.94
        path = write_collapse_rows(tmp_path / "sweep.csv", (10, 20), eps_c)
        assert main(["collapse", path, "--eps-c", str(eps_c)]) == 0
        out = capsys.readouterr().out
        metric_line = [l for l in out.splitlines() if "N=10/20" in l][0]
        assert "Pi_u=" in metric_line
        piu_metric = float(metric_line.split("Pi_u=")[1].split()[0])
        assert piu_metric < 1e-10


class TestFitDivergenceCommand:
    def _write_synthetic(self, tmp_path, jitter=0.0):
        rng = np.random.default_rng(0)
        rows = []
        for rel in np.linspace(-0.14, 0.14, 57):
            if abs(rel) < 1e-6:
                continue
            lam = LAMBDA_C * (1 + rel)
            pid = 2.5 / abs(LAMBDA_C - lam) * (1 + jitter * rng.normal())
            rows.append(
                {
                    "model": "dicke", "N": 1, "eps_or_lambda": lam, "S": 1.0,
                    "Phi_ext": 0.0, "Phi_q": pid, "Pi_ext": 0.0, "Pi_u": 0.1,
                    "Pi_d": pid, "gap": None, "alpha_re": 0.0, "alpha_im": 0.0,
                    "beta": 0.0, "residual": 0.0, "n_max_used": None,
                    "wall_time_s": 0.0,
                }
            )
        path = tmp_path / "dicke.csv"
        write_results(str(path), rows, {}, [f"# lambda_c={LAMBDA_C!r}"])
        return str(path)

    def test_exact_power_law_recovered(self, tmp_path, capsys):
        path = self._write_synthetic(tmp_path)
        assert main(["fit-divergence", path]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("left:", "right:")):
                slope = float(line.split("slope=")[1].split()[0])
                assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_real_pipeline_core_window_degrades(self, tmp_path, capsys):
        cfg = dicke_config(
            tmp_path, LAMBDA_C * 0.985, LAMBDA_C * 1.015, 31, out_name="core.csv"
        )
        main(["run", write_config(tmp_path / "c.json", cfg)])
        assert main(
            ["fit-divergence", cfg["output"], "--window", "0.001,0.012"]
        ) == 0
        out = capsys.readouterr().out
        slopes = [
            float(line.split("slope=")[1].split()[0])
            for line in out.splitlines()
            if line.startswith(("left:", "right:"))
        ]
        assert all(s > -0.7 for s in slopes)  # rounded by the gamma core

    def test_missing_lambda_c(self, tmp_path, capsys):
        rows = [
            {
                "model": "dicke", "N": 1, "eps_or_lambda": 0.3, "S": 1.0,
                "Phi_ext": 0.0, "Phi_q": 1.0, "Pi_ext": 0.0, "Pi_u": 0.1,
                "Pi_d": 1.0, "gap": None, "alpha_re": 0.0, "alpha_im": 0.0,
                "beta": 0.0, "residual": 0.0, "n_max_used": None,
                "wall_time_s": 0.0,
            }
        ]
        path = tmp_path / "nolc.csv"
        write_results(str(path), rows, {})
        assert main(["fit-divergence", str(path)]) == EXIT_CONFIG

    def test_kerr_rows_rejected(self, tmp_path, capsys):
        path = write_collapse_rows(tmp_path / "sweep.csv", (10,), 0.94)
        assert main(["fit-divergence", path]) == EXIT_CONFIG
        assert "no dicke rows in results file" in capsys.readouterr().err

    def test_too_few_points_exits_numerical(self, tmp_path, capsys):
        # the synthetic scan steps 0.005 in lambda / lambda_c - 1, so this
        # window holds two points a side
        path = self._write_synthetic(tmp_path)
        assert main(["fit-divergence", path, "--window", "0.001,0.012"]) == EXIT_NUMERICAL
        assert "fit failed: only 2 usable points" in capsys.readouterr().err

    def test_side_on_one_coupling_exits_numerical(self, tmp_path, capsys):
        # six copies of one left-window row: numpy's line fit once raised a
        # broadcast ValueError here and the command exited 1
        rows, _ = read_results(self._write_synthetic(tmp_path))
        left = [r for r in rows if -0.12 <= r["eps_or_lambda"] / LAMBDA_C - 1 <= -0.04]
        rows = [r for r in rows if r not in left] + [left[0]] * 6
        path = tmp_path / "one_coupling.csv"
        write_results(str(path), rows, {}, [f"# lambda_c={LAMBDA_C!r}"])
        assert main(["fit-divergence", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "fit failed: all 6 usable points on side -1 share one coupling" in err

    @pytest.mark.parametrize(
        "window, named",
        [
            ("0.01,0.001", "window must satisfy 0 <= lo < hi"),
            ("0.01,0.01", "window must satisfy 0 <= lo < hi"),
            ("0.01", "window must be 'lo,hi'"),
            ("lo,hi", "window must be 'lo,hi'"),
        ],
        ids=["lo-above-hi", "lo-equals-hi", "one-value", "text"],
    )
    def test_window_checked_when_parsed(self, tmp_path, capsys, window, named):
        path = self._write_synthetic(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["fit-divergence", path, "--window", window])
        assert info.value.code == EXIT_CONFIG
        assert f"argument --window: {named}" in capsys.readouterr().err


class TestResultsInput:
    """Malformed results files and critical values exit 2 and name the
    cause, without a traceback."""

    @pytest.mark.parametrize(
        "lineno, edit, named",
        [
            (6, lambda line: line.rsplit(",", 1)[0], ":6: 15 fields, expected 16"),
            (7, lambda line: re.sub(r"^(kerr,\d+,)[^,]*", r"\1abc", line),
             ":7: eps_or_lambda = 'abc' is not a number"),
            (8, lambda line: line.replace("kerr,10,", "kerr,ten,"),
             ":8: N = 'ten' is not a number"),
            # a stamp in place of the config hash line
            (4, lambda line: "# lambda_c=abc",
             ":4: lambda_c must be a finite number > 0, got 'abc'"),
            (4, lambda line: "# lambda_c=nan",
             ":4: lambda_c must be a finite number > 0, got 'nan'"),
            (6, set_field("N", "0"), ":6: N = 0 must be >= 1"),
            (7, set_field("Pi_u", ""), ":7: Pi_u is blank"),
            (8, set_field("eps_or_lambda", "nan"), ":8: eps_or_lambda = 'nan' is not finite"),
            (9, set_field("Pi_d", "inf"), ":9: Pi_d = 'inf' is not finite"),
            (10, set_field("model", ""), ":10: model is blank"),
            (11, set_field("N", "1" + "0" * 400), ":11: N = '1000"),
            (5, lambda line: line.replace("model,", "kind,", 1), ": ['kind', 'N',"),
        ],
        ids=[
            "short-row", "eps-text", "N-text", "lambda_c-text", "lambda_c-nan",
            "N-zero", "Pi_u-blank", "eps-nan", "Pi_d-inf", "model-blank", "N-past-float",
            "header-columns",
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["collapse", "--eps-c", "0.94"], ["fit-divergence"]],
        ids=["collapse", "fit-divergence"],
    )
    def test_malformed_results_exit_config(
        self, tmp_path, capsys, argv, lineno, edit, named
    ):
        path = write_collapse_rows(tmp_path / "sweep.csv", (10,), 0.94)
        lines = Path(path).read_text().splitlines()
        lines[lineno - 1] = edit(lines[lineno - 1])
        Path(path).write_text("\n".join(lines) + "\n")
        assert main([argv[0], path, *argv[1:]]) == EXIT_CONFIG
        assert f"sweep.csv{named}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["run"], ["collapse", "--eps-c", "0.94"], ["fit-divergence"]],
        ids=["run", "collapse", "fit-divergence"],
    )
    def test_not_utf8_exits_config(self, tmp_path, capsys, argv):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff# caf\xe9\n")
        assert main([argv[0], str(path), *argv[1:]]) == EXIT_CONFIG
        assert f"{path} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["collapse", "--eps-c", "0.94"], ["fit-divergence"]],
        ids=["collapse", "fit-divergence"],
    )
    def test_no_data_header_exits_config(self, tmp_path, capsys, argv):
        path = tmp_path / "sweep.csv"
        path.write_text("# wehrlflux results\n# schema_version=1\n")
        assert main([argv[0], str(path), *argv[1:]]) == EXIT_CONFIG
        assert f"{path} contains no data header" in capsys.readouterr().err

    def test_optional_columns_may_be_blank(self, tmp_path, capsys):
        path = write_collapse_rows(tmp_path / "sweep.csv", (10,), 0.94)
        lines = Path(path).read_text().splitlines()
        for name in ("gap", "beta", "n_max_used"):
            lines[5] = set_field(name, "")(lines[5])
        Path(path).write_text("\n".join(lines) + "\n")
        row = read_results(path)[0][0]
        assert row["gap"] is row["beta"] is row["n_max_used"] is None
        assert main(["collapse", path, "--eps-c", "0.94"]) == 0

    @pytest.mark.parametrize(
        "command, option", [("collapse", "--eps-c"), ("fit-divergence", "--lambda-c")]
    )
    @pytest.mark.parametrize("value", ["0", "-1", "-0.35", "nan", "inf", "abc"])
    def test_critical_value_checked_when_parsed(
        self, tmp_path, capsys, command, option, value
    ):
        path = write_collapse_rows(tmp_path / "sweep.csv", (10,), 0.94)
        with pytest.raises(SystemExit) as info:
            main([command, path, option, value])
        assert info.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"argument {option}: must be a finite number > 0, got '{value}'" in err
