import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from wehrlflux.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    load_config,
    main,
    read_results,
    validate_config,
    write_results,
)
from wehrlflux.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


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


class TestConfigValidation:
    def test_malformed_json_is_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n "model": "kerr",\n broken\n}\n')
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad.json:3:" in err

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

    @pytest.mark.parametrize(
        "key, value", [("gamma", 0), ("gamma", "small"), ("N", 0), ("N", 2.5)]
    )
    def test_dicke_optional_params_validated(self, tmp_path, capsys, key, value):
        cfg = dicke_config(tmp_path, 0.3, 0.31, 2)
        cfg["params"][key] = value
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == EXIT_CONFIG
        assert f"params.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, key, value, argv, env, named",
        [
            ("dicke", "numerics.mc_samples", 0, [], None, "mc_samples"),
            ("dicke", "numerics.seed", -1, [], None, "seed"),
            ("dicke", "numerics.seed", 1.5, [], None, "seed"),
            ("kerr", "numerics.points_per_axis", 10, [], None, "points_per_axis"),
            ("kerr", "numerics.mass_tol", -1e-6, [], None, "mass_tol"),
            ("kerr", "numerics.mass_tol", "tight", [], None, "mass_tol"),
            ("kerr", "numerics.mass_tol", math.inf, [], None, "mass_tol"),
            ("kerr", "numerics.q_floor_ratio", -1e-14, [], None, "q_floor_ratio"),
            ("kerr", "numerics.q_floor_ratio", None, [], None, "q_floor_ratio"),
            ("dicke", "numerics.balance_tol", 1e-2, [], None, "balance_tol"),
            ("kerr", "numerics.certify_cutoff", "yes", [], None, "certify_cutoff"),
            ("dicke", None, None, ["--threads", "-3"], None, "--threads"),
            ("dicke", None, None, [], "abc", "WEHRLFLUX_THREADS"),
            ("kerr", "params.delta", math.nan, [], None, "params.delta"),
            ("cavity", "params.E", math.inf, [], None, "params.E"),
            ("dicke", "params.omega0", math.nan, [], None, "params.omega0"),
            ("kerr", "sweep.eps.min", math.nan, [], None, "sweep.eps.min"),
            ("kerr", "sweep.N_list", [True], [], None, "sweep.N_list"),
            ("kerr", "sweep.eps.count", True, [], None, "sweep.eps.count"),
            ("kerr", "numerics.mc_samples", 10, [], None, "mc_samples"),
            ("dicke", "numerics.points_per_axis", 128, [], None, "points_per_axis"),
            ("dicke", "numerics.compute_gap", False, [], None, "compute_gap"),
            ("cavity", "numerics.compute_gap", False, [], None, "compute_gap"),
            ("cavity", "numerics.seed", 1, [], None, "seed"),
        ],
        ids=[
            "mc_samples-0", "seed-negative", "seed-fraction", "points_per_axis-10",
            "mass_tol-negative", "mass_tol-text", "mass_tol-infinite",
            "q_floor_ratio-negative", "q_floor_ratio-null", "balance_tol-removed",
            "certify_cutoff-text", "threads-negative", "threads-env-text",
            "kerr-delta-nan", "cavity-E-infinite", "dicke-omega0-nan",
            "eps-min-nan", "N_list-bool", "eps-count-bool",
            "kerr-reads-no-mc_samples", "dicke-reads-no-points_per_axis",
            "dicke-reads-no-compute_gap", "cavity-reads-no-compute_gap",
            "cavity-reads-no-seed",
        ],
    )
    def test_invalid_run_inputs_exit_config(
        self, tmp_path, capsys, monkeypatch, model, key, value, argv, env, named
    ):
        if env is None:
            monkeypatch.delenv("WEHRLFLUX_THREADS", raising=False)
        else:
            monkeypatch.setenv("WEHRLFLUX_THREADS", env)
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

    @pytest.mark.parametrize("certify", [True, False])
    def test_certify_cutoff_still_accepted(self, tmp_path, certify):
        # schema-1 configs keep the key; every Kerr point checks its own
        # Fock tail whatever it says
        cfg = kerr_config(tmp_path)
        cfg["numerics"]["certify_cutoff"] = certify
        loaded = load_config(write_config(tmp_path / "c.json", cfg))
        assert loaded["numerics"]["certify_cutoff"] is certify

    def test_readme_configs_validate(self):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        assert blocks
        for block in blocks:
            validate_config(json.loads(block), "README.md")


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

    def test_mc_validate_failure_exit_code(self, tmp_path):
        cfg = dicke_config(
            tmp_path, 0.30, 0.32, 2, mc_validate=True, mc_samples=10, seed=1
        )
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == EXIT_NUMERICAL

    def test_keep_going_records_failures(self, tmp_path, capsys):
        cfg = dicke_config(
            tmp_path, 0.30, 0.32, 2, mc_validate=True, mc_samples=10, seed=1
        )
        code = main(["run", write_config(tmp_path / "c.json", cfg), "--keep-going"])
        assert code == 0
        assert "failed" in capsys.readouterr().out

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

    def test_io_error_exit_code(self, tmp_path, capsys):
        cfg = cavity_config(tmp_path)
        cfg["output"] = "/dev/null/cannot/exist.csv"
        assert main(["run", write_config(tmp_path / "c.json", cfg)]) == EXIT_IO


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


class TestCollapseCommand:
    def test_single_size_metric_undefined(self, tmp_path, capsys):
        cfg = cavity_config(tmp_path)
        main(["run", write_config(tmp_path / "c.json", cfg)])
        assert main(["collapse", cfg["output"], "--eps-c", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "undefined" in out

    def test_synthetic_rows_collapse(self, tmp_path, capsys):
        rows = []
        eps_c = 0.94
        for N in (10, 20):
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
        path = tmp_path / "sweep.csv"
        write_results(str(path), rows, {})
        assert main(["collapse", str(path), "--eps-c", str(eps_c)]) == 0
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
