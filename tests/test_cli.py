import copy

import pytest
import yaml

from modesmc import WeightCollapseError
from modesmc.cli import (
    ConfigError,
    build_problem,
    config_hash,
    main,
    parse_config,
    serialize_config,
    sweep_from_config,
    validate_config,
)

ISING_CFG = {
    "problem": {"family": "ising", "dimension": 5, "alpha": 1.0},
    "algorithm": {
        "method": "smc",
        "particles": 400,
        "mutation_steps": 8,
        "seed": 42,
    },
    "output": {"directory": "out"},
}


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestConfigHandling:
    def test_round_trip(self):
        assert parse_config(serialize_config(ISING_CFG)) == ISING_CFG

    def test_unknown_top_level_key(self):
        cfg = dict(ISING_CFG, extra={})
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "extra"

    def test_unknown_nested_key(self):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["algorithm"]["bogus"] = 1
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "algorithm.bogus"

    def test_type_mismatch(self):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["algorithm"]["particles"] = "many"
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "algorithm.particles"

    def test_hash_ignores_output_location(self):
        a = copy.deepcopy(ISING_CFG)
        b = copy.deepcopy(ISING_CFG)
        b["output"]["directory"] = "elsewhere"
        assert config_hash(a) == config_hash(b)

    def test_hash_tracks_seed(self):
        b = copy.deepcopy(ISING_CFG)
        b["algorithm"]["seed"] = 43
        assert config_hash(ISING_CFG) != config_hash(b)

    def test_build_problem_families(self):
        for family in ("ising", "four_state"):
            cfg = copy.deepcopy(ISING_CFG)
            cfg["problem"]["family"] = family
            fam, part, truth = build_problem(cfg)
            assert part.n_cells == 2

    def test_build_problem_unknown_family(self):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["problem"]["family"] = "beta-binomial"
        with pytest.raises(ConfigError):
            build_problem(cfg)


class TestCommands:
    def test_missing_field_exits_2(self, tmp_path, capsys):
        cfg = copy.deepcopy(ISING_CFG)
        del cfg["algorithm"]["particles"]
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path)]) == 2
        assert "algorithm.particles" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["problem"]["spin"] = 1
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path)]) == 2
        assert "problem.spin" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("engine", "counts"),  # ising is not an enumerated family
            ("engine", "warp"),
            ("particles", 0),
            ("mutation_steps", -1),
        ],
    )
    def test_invalid_algorithm_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["algorithm"][key] = value
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path)]) == 2
        assert f"algorithm.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family,dimension", [("gaussian_mixture", 1), ("ising", 4), ("ising", -1)]
    )
    def test_invalid_problem_dimension_exits_2(
        self, tmp_path, capsys, family, dimension
    ):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["problem"].update(family=family, dimension=dimension)
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path)]) == 2
        assert "problem.dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_invalid_threads_exits_2(self, tmp_path, capsys, threads):
        path = write_cfg(tmp_path, ISING_CFG)
        argv = ["run-smc", "--config", str(path), "--out", str(tmp_path / "o")]
        assert main([*argv, "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, ISING_CFG)
        assert main(["run-smc", "--config", str(path), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block,key,value",
        [
            ("algorithm", "particles", True),
            ("algorithm", "mutation_steps", False),
            ("problem", "dimension", True),
            ("problem", "alpha", True),
        ],
    )
    def test_bool_in_numeric_field_exits_2(
        self, tmp_path, capsys, block, key, value
    ):
        cfg = copy.deepcopy(ISING_CFG)
        cfg[block][key] = value
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path)]) == 2
        assert f"{block}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family,key,value",
        [
            ("ising", "alpha", float("nan")),
            ("ising", "alpha", float("inf")),
            ("gaussian_mixture", "sigma", float("nan")),
            ("gaussian_mixture", "center_scale", float("-inf")),
        ],
    )
    def test_non_finite_float_exits_2(self, tmp_path, capsys, family, key, value):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["problem"].update({"family": family, key: value})
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path)]) == 2
        assert f"problem.{key}" in capsys.readouterr().err

    def test_restricted_still_takes_bools(self, tmp_path):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["algorithm"]["restricted"] = False
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("replicates", ["0", "-5"])
    def test_invalid_replicates_flag_exits_2(self, tmp_path, capsys, replicates):
        path = write_cfg(tmp_path, ISING_CFG)
        argv = ["run-smc", "--config", str(path), "--out", str(tmp_path / "o")]
        assert main([*argv, "--replicates", replicates]) == 2
        assert "--replicates" in capsys.readouterr().err

    @pytest.mark.parametrize("replicates", [0, -5])
    def test_invalid_replicates_config_exits_2(self, tmp_path, capsys, replicates):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["algorithm"]["replicates"] = replicates
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path)]) == 2
        assert "algorithm.replicates" in capsys.readouterr().err

    def test_negative_sweeps_exits_2(self, tmp_path, capsys):
        cfg = {
            "problem": {"family": "four_state"},
            "algorithm": {"method": "pt", "sweeps": -4, "seed": 3},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["run-pt", "--config", str(path),
                     "--out", str(tmp_path / "pt")]) == 2
        assert "algorithm.sweeps" in capsys.readouterr().err
        cfg["algorithm"]["sweeps"] = 0
        path = write_cfg(tmp_path, cfg)
        assert main(["run-pt", "--config", str(path),
                     "--out", str(tmp_path / "pt")]) == 0

    def test_run_smc_outputs(self, tmp_path, capsys):
        path = write_cfg(tmp_path, ISING_CFG)
        out = tmp_path / "o"
        assert main(["run-smc", "--config", str(path), "--out", str(out)]) == 0
        csv = (out / "diagnostics.csv").read_text().splitlines()
        assert csv[0] == ("stage,cell,w_hat,p_hat,occupancy_before,"
                          "occupancy_after,log_z_increment,config_hash,seed")
        assert len(csv) == 1 + 5 * 2  # V=5 stages, 2 cells
        h = config_hash(ISING_CFG)
        assert all(h in line for line in csv[1:])
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert summary["config_hash"] == h
        assert summary["seed"] == 42

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        path = write_cfg(tmp_path, ISING_CFG)
        outs = []
        for threads, name in ((1, "a"), (4, "b")):
            out = tmp_path / name
            assert main([
                "run-smc", "--config", str(path), "--out", str(out),
                "--threads", str(threads),
            ]) == 0
            outs.append((out / "diagnostics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_output(self, tmp_path):
        path = write_cfg(tmp_path, ISING_CFG)
        texts = []
        for seed, name in ((42, "a"), (43, "b")):
            out = tmp_path / name
            main(["run-smc", "--config", str(path), "--out", str(out),
                  "--seed", str(seed)])
            texts.append((out / "diagnostics.csv").read_text())
        assert texts[0] != texts[1]

    def test_weight_collapse_exits_3(self, tmp_path, capsys, monkeypatch):
        import modesmc.cli as climod

        def boom(cfg, threads=1, out_dir=None):
            raise WeightCollapseError(2)

        monkeypatch.setattr(climod, "run_smc_from_config", boom)
        path = write_cfg(tmp_path, ISING_CFG)
        assert main(["run-smc", "--config", str(path)]) == 3
        assert "stage 2" in capsys.readouterr().err

    def test_run_pt_and_st(self, tmp_path, capsys):
        cfg = {
            "problem": {"family": "four_state"},
            "algorithm": {"method": "pt", "sweeps": 5_000, "seed": 3},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["run-pt", "--config", str(path),
                     "--out", str(tmp_path / "pt")]) == 0
        cfg["algorithm"] = {
            "method": "st", "sweeps": 5_000, "seed": 3,
            "particles": 500, "mutation_steps": 10,
        }
        path = write_cfg(tmp_path, cfg, "st.yaml")
        assert main(["run-st", "--config", str(path),
                     "--out", str(tmp_path / "st")]) == 0
        summary = yaml.safe_load((tmp_path / "st" / "summary.yaml").read_text())
        assert len(summary["temperature_occupancy"]) == 4

    def test_zero_sweeps_write_empty_occupancy(self, tmp_path):
        cfg = {
            "problem": {"family": "four_state"},
            "algorithm": {"method": "pt", "sweeps": 0, "seed": 3},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["run-pt", "--config", str(path),
                     "--out", str(tmp_path / "pt")]) == 0
        summary = yaml.safe_load((tmp_path / "pt" / "summary.yaml").read_text())
        assert summary["occupancy"] == []
        assert summary["crossings_per_sweep"] == 0.0
        cfg["algorithm"].update(method="st", pseudo_priors=[1, 1, 1, 1])
        path = write_cfg(tmp_path, cfg, "st.yaml")
        assert main(["run-st", "--config", str(path),
                     "--out", str(tmp_path / "st")]) == 0
        summary = yaml.safe_load((tmp_path / "st" / "summary.yaml").read_text())
        assert summary["temperature_occupancy"] == []

    def test_run_st_honours_step_size(self, tmp_path):
        occupancies = []
        for step in (0.001, 5.0):
            cfg = {
                "problem": {"family": "gaussian_mixture", "dimension": 5},
                "algorithm": {
                    "method": "st", "sweeps": 2_000, "seed": 3, "step_size": step,
                    "particles": 200, "mutation_steps": 5,
                },
            }
            path = write_cfg(tmp_path, cfg)
            out = tmp_path / f"st-{step}"
            assert main(["run-st", "--config", str(path), "--out", str(out)]) == 0
            summary = yaml.safe_load((out / "summary.yaml").read_text())
            occupancies.append(summary["temperature_occupancy"])
        assert occupancies[0] != occupancies[1]

    @pytest.mark.parametrize("command", ["run-smc", "run-pt", "run-st"])
    @pytest.mark.parametrize("step", [0, -0.5])
    def test_nonpositive_step_size_exits_2(self, tmp_path, capsys, command, step):
        cfg = {
            "problem": {"family": "gaussian_mixture", "dimension": 3},
            "algorithm": {
                "method": command[4:], "particles": 100, "mutation_steps": 2,
                "sweeps": 10, "seed": 3, "step_size": step,
            },
        }
        path = write_cfg(tmp_path, cfg)
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "algorithm.step_size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "priors",
        [
            [1.0, 1.0],  # four_state has 4 levels
            [1.0, "heavy", 1.0, 1.0],
            [1.0, -2.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 1.0],
            [1.0, True, 1.0, 1.0],
            [1.0, float("nan"), 1.0, 1.0],
            [1.0, float("inf"), 1.0, 1.0],
        ],
        ids=["length", "text", "negative", "zero", "bool", "nan", "inf"],
    )
    def test_invalid_pseudo_priors_exit_2(self, tmp_path, capsys, priors):
        cfg = {
            "problem": {"family": "four_state"},
            "algorithm": {
                "method": "st", "sweeps": 100, "seed": 3, "pseudo_priors": priors,
            },
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["run-st", "--config", str(path),
                     "--out", str(tmp_path / "st")]) == 2
        assert "algorithm.pseudo_priors" in capsys.readouterr().err

    def test_method_mismatch_rejected(self, tmp_path):
        cfg = {
            "problem": {"family": "four_state"},
            "algorithm": {"method": "smc", "sweeps": 100, "seed": 3},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["run-pt", "--config", str(path)]) == 2

    def test_bounds_command(self, tmp_path, capsys):
        cfg = {
            "problem": {"family": "four_state"},
            "algorithm": {"method": "smc", "seed": 1},
            "bounds": {"epsilon": 0.25},
        }
        path = write_cfg(tmp_path, cfg)
        assert main(["bounds", "--config", str(path),
                     "--out", str(tmp_path / "b")]) == 0
        text = capsys.readouterr().out
        assert "n_particles" in text and "t_from_gap" in text
        table = yaml.safe_load((tmp_path / "b" / "bounds.yaml").read_text())
        assert table["warm_start_m"] == 7


class TestSweep:
    def base(self):
        return {
            "problem": {"family": "ising", "alpha": 1.0},
            "algorithm": {
                "method": "smc", "particles": 200, "mutation_steps": 5,
                "seed": 5,
            },
            "sweep": {"problem.dimension": [3, 5, 7]},
        }

    def test_three_point_sweep(self, tmp_path):
        cfg = self.base()
        results = sweep_from_config(cfg, threads=2, out_dir=tmp_path / "s")
        assert [r["status"] for r in results] == ["ok"] * 3
        table = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        assert len(table) == 4
        for k in range(3):
            assert (tmp_path / "s" / f"point_{k:03d}" / "diagnostics.csv").exists()

    def test_tracking_error_decreases_with_particles(self, tmp_path):
        cfg = {
            "problem": {"family": "four_state"},
            "algorithm": {"method": "smc", "mutation_steps": 30, "seed": 9},
            "sweep": {"algorithm.particles": [100, 1_000, 10_000]},
        }
        results = sweep_from_config(cfg, out_dir=tmp_path / "s")
        errs = [r["max_tracking_error"] for r in results]
        assert errs[0] > errs[2]

    def test_partial_failure_recorded(self, tmp_path):
        cfg = self.base()
        cfg["sweep"]["problem.dimension"] = [3, 4, 5]  # even d is invalid
        results = sweep_from_config(cfg, out_dir=tmp_path / "s")
        statuses = [r["status"] for r in results]
        assert statuses[0] == "ok" and statuses[2] == "ok"
        assert statuses[1] != "ok"

    def test_invalid_point_values_are_config_errors(self, tmp_path):
        cfg = self.base()
        cfg["problem"]["dimension"] = 3
        cfg["sweep"] = {"algorithm.particles": [0, 200]}
        results = sweep_from_config(cfg, out_dir=tmp_path / "s")
        statuses = [r["status"] for r in results]
        assert statuses == ["config-error:algorithm.particles", "ok"]

    def test_invalid_dimension_points_are_config_errors(self, tmp_path):
        cfg = self.base()
        cfg["sweep"]["problem.dimension"] = [3, 4]  # even d is invalid for ising
        results = sweep_from_config(cfg, out_dir=tmp_path / "s")
        statuses = [r["status"] for r in results]
        assert statuses == ["ok", "config-error:problem.dimension"]

    def test_invalid_replicates_points_are_config_errors(self, tmp_path):
        cfg = self.base()
        cfg["problem"]["dimension"] = 3
        cfg["sweep"] = {"algorithm.replicates": [0, 1]}
        results = sweep_from_config(cfg, out_dir=tmp_path / "s")
        statuses = [r["status"] for r in results]
        assert statuses == ["config-error:algorithm.replicates", "ok"]

    def test_nonpositive_step_size_points_are_config_errors(self, tmp_path):
        cfg = {
            "problem": {"family": "gaussian_mixture", "dimension": 3},
            "algorithm": {
                "method": "smc", "particles": 100, "mutation_steps": 2, "seed": 5,
            },
            "sweep": {"algorithm.step_size": [0.0, 0.5]},
        }
        results = sweep_from_config(cfg, out_dir=tmp_path / "s")
        statuses = [r["status"] for r in results]
        assert statuses == ["config-error:algorithm.step_size", "ok"]

    def test_empty_grid_writes_empty_table(self, tmp_path):
        cfg = self.base()
        cfg["sweep"] = {}
        results = sweep_from_config(cfg, out_dir=tmp_path / "s")
        assert results == []
        assert (tmp_path / "s" / "sweep.csv").read_text().count("\n") == 1

    def test_oversized_grid_rejected(self, tmp_path):
        cfg = self.base()
        cfg["sweep"] = {"algorithm.seed": list(range(1001))}
        with pytest.raises(ConfigError):
            sweep_from_config(cfg, out_dir=tmp_path / "s")


class TestVerifyCommand:
    def test_quick_suite_passes(self, tmp_path, capsys):
        assert main(["verify", "--quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        table = (tmp_path / "verify.csv").read_text()
        assert table.startswith("check,passed,detail")
