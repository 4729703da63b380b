import contextlib
import copy
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import modesmc.engine
from modesmc import WeightCollapseError
from modesmc.cli import (
    _FIELDS,
    MAX_OVERLAP_DIMENSION,
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


ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


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

    @pytest.mark.parametrize("method", ["smc", "pt", "st", "bogus", "SMC", ""])
    def test_method_is_smc_pt_or_st(self, method):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["algorithm"]["method"] = method
        if method in ("smc", "pt", "st"):
            assert validate_config(cfg) is cfg
            return
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.path == "algorithm.method"

    def test_build_problem_unknown_family(self):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["problem"]["family"] = "beta-binomial"
        with pytest.raises(ConfigError):
            build_problem(cfg)


# config values of every kind YAML can carry, alone or in a list or mapping
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.text(max_size=6)
)
_LEAVES = (
    _SCALARS
    | st.lists(_SCALARS, max_size=3)
    | st.dictionaries(st.text(max_size=6), _SCALARS, max_size=3)
)
_PATHS = sorted(_FIELDS) + [
    "problem.spin", "algorithm.bogus", "extra.key",
    "sweep.problem.dimension", "sweep.algorithm.seed",
]


@st.composite
def _config_dicts(draw):
    cfg = {}
    entries = draw(st.dictionaries(st.sampled_from(_PATHS), _LEAVES, max_size=8))
    for path, value in entries.items():
        block, sub = path.split(".", 1)
        cfg.setdefault(block, {})[sub] = value
    for block in draw(st.sets(st.sampled_from(["problem", "sweep", "output"]))):
        cfg[block] = draw(_LEAVES)  # a whole block that is not a mapping
    return cfg


@settings(derandomize=True, database=None, max_examples=1000)
@given(st.text() | _config_dicts().map(yaml.safe_dump))
def test_parse_config_returns_mapping_or_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, dict)


# any float, with the ranges where the bounds' closed forms break down drawn
# as well: subnormals, +-1e308, and centers 40 to 1e3 sds off their half-space
_ANY_FLOAT = (
    st.floats()
    | st.sampled_from([5e-324, -5e-324, 1e308, -1e308])
    | st.floats(40.0, 1e3)
    | st.floats(-1e3, -40.0)
)


@st.composite
def _bounds_configs(draw):
    family = draw(st.sampled_from(["four_state", "ising", "gaussian_mixture"]))
    problem = {"family": family}
    if family == "ising":
        problem["dimension"] = draw(st.sampled_from([1, 3, 5]))
        problem["alpha"] = draw(_ANY_FLOAT)
    elif family == "gaussian_mixture":
        problem["dimension"] = draw(st.sampled_from([2, 3]))
        problem["weight"] = draw(_ANY_FLOAT | st.floats(0.0, 1.0))
        problem["sigma"] = draw(_ANY_FLOAT | st.floats(1e-3, 1e3))
        problem["center_scale"] = draw(_ANY_FLOAT)
    block = {}
    if draw(st.booleans()):
        block["epsilon"] = draw(_ANY_FLOAT | st.floats(0.0, 0.5))
    if draw(st.booleans()):
        block["min_gap"] = draw(_ANY_FLOAT | st.floats(0.0, 1.0))
    return {"problem": problem, "bounds": block}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_bounds_configs())
def test_bounds_writes_finite_table_or_one_error_line(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["bounds", "--config", str(path), "--out", f"{tmp}/b"])
        if code == 0:
            table = yaml.safe_load((Path(tmp) / "b" / "bounds.yaml").read_text())
            assert all(math.isfinite(v) for v in table.values()), table
        else:
            assert code in (2, 3)
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()


def _numbers(node):
    """Every number in a loaded summary, however deeply nested."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _numbers(item)
    elif isinstance(node, (int, float)):
        yield node


@st.composite
def _run_configs(draw):
    command = draw(st.sampled_from(["run-smc", "run-pt", "run-st"]))
    family = draw(st.sampled_from(["four_state", "ising", "gaussian_mixture"]))
    problem = {"family": family}
    if family == "ising":
        problem["dimension"] = draw(st.sampled_from([1, 3, 5]))
        problem["alpha"] = draw(_ANY_FLOAT | st.floats(-5.0, 5.0))
    elif family == "gaussian_mixture":
        problem["dimension"] = draw(st.sampled_from([2, 3]))
        if draw(st.booleans()):
            problem["weight"] = draw(_ANY_FLOAT | st.floats(0.0, 1.0))
        if draw(st.booleans()):
            problem["sigma"] = draw(_ANY_FLOAT | st.floats(1e-3, 1e3))
        # centres whose row sums overflow at any dimension >= 2
        problem["center_scale"] = draw(
            _ANY_FLOAT | st.floats(1e308, 1.7e308) | st.floats(-1.7e308, -1e308)
        )
    algo = {
        "method": command[4:],
        "seed": draw(st.integers(0, 2**64 - 1)),
        "particles": draw(st.integers(1, 40)),
        "mutation_steps": draw(st.integers(0, 3)),
        "sweeps": draw(st.integers(0, 40)),
    }
    if draw(st.booleans()):
        algo["step_size"] = draw(_ANY_FLOAT | st.floats(1e-3, 10.0))
    if command == "run-smc":
        algo["restricted"] = draw(st.booleans())
        algo["replicates"] = draw(st.integers(1, 2))
    if command == "run-st" and draw(st.booleans()):
        priors = _ANY_FLOAT | st.floats(0.1, 10.0)
        algo["pseudo_priors"] = draw(st.lists(priors, min_size=1, max_size=8))
    threads = draw(st.sampled_from(["1", "2"]))
    return [command, "--threads", threads], {"problem": problem, "algorithm": algo}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_run_configs())
def test_run_commands_write_finite_summary_or_one_error_line(case):
    # pytest turns any numpy RuntimeWarning into an error, so a run must be quiet
    argv, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(path), "--out", f"{tmp}/o"])
        if code == 0:
            summary = yaml.safe_load((Path(tmp) / "o" / "summary.yaml").read_text())
            assert all(math.isfinite(x) for x in _numbers(summary)), summary
            assert err.getvalue() == ""
        else:
            assert code in (2, 3)
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()


# sweep paths: every config key, unknown keys, paths through a leaf value,
# and a key that is not a string
_SWEEP_PATHS = st.sampled_from(
    sorted(_FIELDS) + [f"{path}.x" for path in sorted(_FIELDS)]
    + ["problem.bogus", "bogus.key", "algorithm", "", 1]
)
# small values only: every point must run in milliseconds
_SWEEP_VALUES = st.sampled_from(
    [None, True, -1, 0, 1, 3, 5, 0.5, 1e300, "smc", "pt", "st", "bogus",
     "four_state", "ising", [1.0] * 4]
)


@st.composite
def _sweep_configs(draw):
    algo = {
        "method": draw(st.sampled_from(["smc", "pt", "st"])),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "particles": draw(st.integers(1, 20)),
        "mutation_steps": draw(st.integers(0, 2)),
        "sweeps": draw(st.integers(0, 20)),
    }
    problem = draw(st.sampled_from(
        [{"family": "four_state"}, {"family": "ising", "dimension": 3}]
    ))
    grid, budget = {}, 3  # at most 3 points
    for path in draw(st.lists(_SWEEP_PATHS, max_size=2, unique=True)):
        grid[path] = draw(st.lists(_SWEEP_VALUES, min_size=1, max_size=budget))
        budget //= len(grid[path])
    threads = draw(st.sampled_from(["1", "2"]))
    return threads, {"problem": problem, "algorithm": algo, "sweep": grid}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_sweep_configs())
def test_sweep_writes_one_row_per_point_or_one_error_line(case):
    threads, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sweep", "--threads", threads, "--config", str(path),
                         "--out", f"{tmp}/s"])
        if code == 0:
            grid = cfg["sweep"]
            n_points = math.prod(map(len, grid.values())) if grid else 0
            rows = (Path(tmp) / "s" / "sweep.csv").read_text().splitlines()
            assert len(rows) == 1 + n_points, rows
            assert err.getvalue() == ""
        else:
            assert code in (2, 3)
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()


def test_readme_library_example_runs():
    # the README's one python block runs as written against this source tree
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                            flags=re.S)
    proc = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    # the particle bound at d = 5, epsilon = 1/4
    assert proc.stdout.splitlines()[-1] == "412382272"


class TestCommands:
    def test_missing_field_exits_2(self, tmp_path, capsys):
        cfg = copy.deepcopy(ISING_CFG)
        del cfg["algorithm"]["particles"]
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path)]) == 2
        assert "algorithm.particles" in capsys.readouterr().err

    # bounds computes W, Z, mu*, p, gamma and pi* itself, so it takes none;
    # the engine picks the count path itself, so no key chooses it
    @pytest.mark.parametrize(
        "path,value",
        [("problem.spin", 1), ("bounds.w", 2.0), ("bounds.z", 2.0),
         ("bounds.mu_star", 0.1), ("bounds.p", 2), ("bounds.gamma", 0.5),
         ("bounds.pi_star", 0.5), ("algorithm.engine", "auto")],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, path, value):
        cfg = copy.deepcopy(ISING_CFG)
        block, key = path.split(".")
        cfg.setdefault(block, {})[key] = value
        assert main(["run-smc", "--config", str(write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == f"config error: {path}: unknown key\n"

    @pytest.mark.parametrize(
        "key,value",
        [
            ("engine", "counts"),  # not a key
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

    @pytest.mark.parametrize(
        "block,key", [("algorithm", "step_size"), ("problem", "sigma")]
    )
    def test_int_past_float_range_exits_2(self, tmp_path, capsys, block, key):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["problem"]["family"] = "gaussian_mixture"
        cfg[block][key] = 10**400
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{block}.{key}: must be finite" in err
        assert "Traceback" not in err

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

    def test_refused_allocation_exits_3(self, tmp_path):
        # the beta=1 trace of 1e17 sweeps is 711 PiB, past any x86-64 address
        # space, so numpy's MemoryError comes at once and nothing is held
        cfg = {"problem": {"family": "four_state"},
               "algorithm": {"method": "pt", "sweeps": 10**17, "seed": 3}}
        proc = subprocess.run(
            [sys.executable, "-m", "modesmc", "run-pt",
             "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("runtime failure: Unable to allocate")
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "o" / "summary.yaml").exists()

    @pytest.mark.parametrize("value", [2**63, 10**400], ids=["2**63", "10**400"])
    @pytest.mark.parametrize(
        "key", ["particles", "mutation_steps", "sweeps", "replicates"]
    )
    def test_size_past_numpy_index_range_exits_2(self, tmp_path, capsys, key, value):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["algorithm"][key] = value
        path = write_cfg(tmp_path, cfg)
        assert main(["run-smc", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"algorithm.{key}: must be in" in capsys.readouterr().err
        cfg["algorithm"][key] = 2**63 - 1  # the largest size still accepted
        assert validate_config(cfg) is cfg

    @pytest.mark.parametrize("method", ["smc", "st"])
    def test_particles_past_numpy_array_size_exits_2(self, tmp_path, capsys, method):
        # 2**62 rows of 5 numbers of 8 bytes are 2**62 * 40 bytes, and numpy
        # refuses any array of 2**63 bytes or more
        cfg = copy.deepcopy(ISING_CFG)
        cfg["problem"] = {"family": "gaussian_mixture", "dimension": 5}
        cfg["algorithm"].update({"method": method, "particles": 2**62, "sweeps": 3})
        assert main([f"run-{method}", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: algorithm.particles: "), err
        assert len(err.splitlines()) == 1

    def test_particles_below_numpy_array_size_exit_3(self, tmp_path, capsys):
        # one particle fewer than 2**63 bytes of d = 5 rows: the particle
        # path's allocation is refused at once (past any address space), a
        # MemoryError
        cfg = copy.deepcopy(ISING_CFG)
        cfg["problem"] = {"family": "gaussian_mixture", "dimension": 5}
        cfg["algorithm"]["particles"] = (2**63 - 1) // 40
        assert main(["run-smc", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: Unable to allocate"), err
        assert len(err.splitlines()) == 1

    def test_spin_levels_below_numpy_array_size_exit_0(self, tmp_path, capsys):
        # the same N on the spin model's levels holds six counts, no rows
        cfg = copy.deepcopy(ISING_CFG)
        cfg["algorithm"]["particles"] = (2**63 - 1) // 40
        out = tmp_path / "o"
        assert main(["run-smc", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert summary["n_particles"] == (2**63 - 1) // 40
        assert math.isclose(sum(summary["cell_occupancy"]), 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize("method", ["smc", "st"])
    def test_spin_levels_past_row_size_exit_0(self, tmp_path, capsys, method):
        # d = 15 spin rows of this N would pass 2**63 bytes, but the run
        # steps 16 level counts and builds no row
        cfg = copy.deepcopy(ISING_CFG)
        cfg["problem"]["dimension"] = 15
        cfg["algorithm"].update(
            {"method": method, "particles": (2**63 - 1) // 40, "sweeps": 3}
        )
        out = tmp_path / "o"
        assert main([f"run-{method}", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if method == "smc":
            summary = yaml.safe_load((out / "summary.yaml").read_text())
            assert summary["n_particles"] == (2**63 - 1) // 40

    def test_integer_past_python_digit_limit_exits_2(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        long_step = "algorithm:\n  step_size: " + "7" * 5001 + "\n"
        path.write_text(yaml.safe_dump(ISING_CFG).replace("algorithm:\n", long_step))
        proc = subprocess.run(
            [sys.executable, "-m", "modesmc", "run-smc", "--config", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ")
        assert "digits" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "family,key,value,code",
        [
            ("gaussian_mixture", "sigma", 0, 2),
            ("gaussian_mixture", "sigma", -1.0, 2),
            ("gaussian_mixture", "sigma", 1.0e-300, 2),
            ("gaussian_mixture", "sigma", 1.0e300, 2),
            # squares that are finite and nonzero, but 1/(2 sigma**2) is not
            ("gaussian_mixture", "sigma", 1.0e-160, 2),
            ("gaussian_mixture", "sigma", 1.3e154, 2),
            ("gaussian_mixture", "weight", 1.5, 2),
            ("gaussian_mixture", "weight", 0, 2),
            ("ising", "alpha", 1.0e308, 3),
            ("gaussian_mixture", "center_scale", 1.0e300, 3),
        ],
    )
    def test_out_of_range_problem_value_exits_cleanly(
        self, tmp_path, family, key, value, code
    ):
        cfg = copy.deepcopy(ISING_CFG)
        cfg["problem"].update(
            {"family": family, "dimension": 5 if family == "ising" else 3, key: value}
        )
        cfg["algorithm"].update({"particles": 50, "mutation_steps": 2})
        proc = subprocess.run(
            [sys.executable, "-m", "modesmc", "run-smc",
             "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 2:
            assert f"config error: problem.{key}: " in proc.stderr
        else:
            assert "runtime failure: non-finite" in proc.stderr
            assert len(proc.stderr.splitlines()) == 1  # no numpy warning first

    @pytest.mark.parametrize(
        "command,problem,algo,code,message,particle_path",
        [
            # every stage weight is e^715: log z is finite, w_hat is not
            ("run-smc", {"family": "ising", "dimension": 1, "alpha": 1430.0}, {},
             3, "runtime failure: stage 1 weight sum past float range", False),
            # one particle's log z is -1.7e307 or -1.5e308: their SD overflows.
            # The two seeds draw those spin sums on the particle path; on the
            # spin levels they draw one level and the run exits 0
            ("run-smc", {"family": "ising", "dimension": 3, "alpha": -1.0e308},
             {"particles": 1, "mutation_steps": 0, "restricted": False,
              "replicates": 2},
             3, "runtime failure: replicates' log z mean or SD past float range",
             True),
            # the centres' distance from 0, |nu| sqrt(d), is past float range
            ("run-pt", {"family": "gaussian_mixture", "dimension": 2,
                        "center_scale": -1.3e308}, {},
             2, "config error: problem.center_scale: ", False),
            # replica exchange scales its moves past float range
            ("run-pt", {"family": "gaussian_mixture", "dimension": 2},
             {"step_size": 1.0e308}, 3, "runtime failure: non-finite", False),
        ],
        ids=["weight-sum", "replicate-sd", "centre-distance", "pt-move"],
    )
    def test_float_range_failures_print_one_line(
        self, tmp_path, capsys, monkeypatch, command, problem, algo, code, message,
        particle_path,
    ):
        if particle_path:
            monkeypatch.setattr(modesmc.engine, "COUNT_PATH_MAX_STATES", 0)
        # in-process, so a numpy warning on the way fails the test
        algo = {"method": command[4:], "particles": 20, "seed": 0,
                "mutation_steps": 1, "sweeps": 5, **algo}
        cfg = {"problem": problem, "algorithm": algo}
        assert main([command, "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("key", ["replicates", "restricted", "step_size"])
    def test_null_value_leaves_key_unset(self, tmp_path, key):
        # YAML null means unset: the run and its config hash are the default's
        outputs = []
        for name, extra in (("unset", {}), ("null", {key: None})):
            cfg = copy.deepcopy(ISING_CFG)
            cfg["algorithm"].update(extra)
            path, out = write_cfg(tmp_path, cfg, f"{name}.yaml"), tmp_path / name
            assert main(["run-smc", "--config", str(path), "--out", str(out)]) == 0
            outputs.append((out / "diagnostics.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_run_smc_non_finite_proposal_exits_3(self, tmp_path, threads):
        # a step of 1e300 overflows the Gaussian log q of every proposal;
        # 2048 particles are two blocks, so two workers each meet it
        cfg = {"problem": {"family": "gaussian_mixture", "dimension": 3},
               "algorithm": {"method": "smc", "particles": 2048,
                             "mutation_steps": 2, "seed": 42,
                             "step_size": 1.0e300}}
        proc = subprocess.run(
            [sys.executable, "-m", "modesmc", "run-smc", "--threads", threads,
             "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("runtime failure: non-finite")
        assert len(proc.stderr.splitlines()) == 1  # no numpy warning first
        assert not (tmp_path / "o" / "summary.yaml").exists()

    @pytest.mark.parametrize("method", ["pt", "st"])
    def test_tempering_non_finite_density_exits_3(self, tmp_path, method):
        # alpha/(2d) (sum x)^2 overflows to inf on the spin sums +-5
        algo = {"method": method, "sweeps": 20, "seed": 42}
        if method == "st":
            algo["pseudo_priors"] = [1.0] * 6  # given, so no SMC run first
        cfg = {"problem": {"family": "ising", "dimension": 5, "alpha": 1.0e308},
               "algorithm": algo}
        proc = subprocess.run(
            [sys.executable, "-m", "modesmc", f"run-{method}",
             "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("runtime failure: non-finite")
        assert len(proc.stderr.splitlines()) == 1  # no numpy warning first
        assert not (tmp_path / "o" / "summary.yaml").exists()

    @pytest.mark.parametrize(
        "text,problem",
        [
            ("algorithm: [particles: 3\n", "not valid YAML"),
            ("algorithm: " + "[" * 3000 + "]" * 3000 + "\n", "nested too deeply"),
        ],
        ids=["unclosed", "deep"],
    )
    def test_unreadable_yaml_exits_2(self, tmp_path, capsys, text, problem):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert main(["run-smc", "--config", str(path)]) == 2
        assert f"<root>: {problem}" in capsys.readouterr().err

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

    def test_run_smc_at_ten_billion_particles(self, tmp_path):
        # the count path keeps one count per state, so N = 1e10 holds no row
        # per particle, and the occupancy is read from the counts
        cfg = {"problem": {"family": "four_state"},
               "algorithm": {"method": "smc", "particles": 10**10,
                             "mutation_steps": 20, "seed": 8}}
        out = tmp_path / "o"
        assert main(["run-smc", "--config", str(write_cfg(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        summary = yaml.safe_load((out / "summary.yaml").read_text())
        assert summary["n_particles"] == 10**10
        assert math.isclose(sum(summary["cell_occupancy"]), 1.0, rel_tol=1e-15)

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

    @pytest.mark.parametrize("command", ["run-smc", "run-pt", "run-st"])
    @pytest.mark.parametrize("method", [None, "other", "bogus"])
    def test_run_command_needs_its_own_method(self, tmp_path, capsys, command, method):
        # run-<method> runs only algorithm.method: <method>, run-smc included
        algo = {"particles": 50, "mutation_steps": 2, "sweeps": 10, "seed": 3}
        if method is not None:
            other = "pt" if command == "run-smc" else "smc"
            algo["method"] = other if method == "other" else method
        path = write_cfg(tmp_path, {"problem": {"family": "four_state"},
                                    "algorithm": algo})
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: algorithm.method: "
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run-smc", "run-pt", "run-st"])
    def test_centres_past_float_range_run_quietly(self, tmp_path, command):
        # the half-space row sums of centres at 1e308 overflow but keep their
        # sign, so the cells are right and no numpy warning reaches stderr;
        # run-st's warning came from its pseudo-prior SMC run
        cfg = {"problem": {"family": "gaussian_mixture", "dimension": 3,
                           "center_scale": 1.0e308},
               "algorithm": {"method": command[4:], "particles": 200,
                             "mutation_steps": 5, "sweeps": 50, "seed": 42}}
        proc = subprocess.run(
            [sys.executable, "-m", "modesmc", command,
             "--config", str(write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

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

    @pytest.mark.parametrize(
        "key,value", [("epsilon", 0.9), ("epsilon", 0), ("min_gap", 0), ("min_gap", 1.5)]
    )
    def test_out_of_range_bounds_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = {"problem": {"family": "four_state"}, "bounds": {key: value}}
        path = write_cfg(tmp_path, cfg)
        assert main(["bounds", "--config", str(path),
                     "--out", str(tmp_path / "b")]) == 2
        interval = {"epsilon": "(0, 1/2]", "min_gap": "(0, 1]"}[key]
        assert capsys.readouterr().err == (
            f"config error: bounds.{key}: must be in {interval}, got {value}\n"
        )

    @pytest.mark.parametrize(
        "problem",
        [
            {"family": "ising", "dimension": 5, "alpha": 2000.0},  # W = e^1000
            {"family": "ising", "dimension": 5, "alpha": -2000.0},
            # N's closed form squares past float range, or is infinite
            {"family": "gaussian_mixture", "dimension": 5, "weight": 1.0e-300},
            {"family": "gaussian_mixture", "dimension": 5, "weight": 5.0e-324},
            # Z = z_{v-1}/z_v past float range, or log z itself infinite
            {"family": "gaussian_mixture", "dimension": 3, "center_scale": -50.0},
            {"family": "gaussian_mixture", "dimension": 3, "center_scale": -1.0e257},
        ],
        ids=["alpha+2000", "alpha-2000", "weight-1e-300", "weight-5e-324",
             "center-50", "center-1e257"],
    )
    def test_bounds_past_float_range_exits_2(self, tmp_path, problem):
        proc = subprocess.run(
            [sys.executable, "-m", "modesmc", "bounds",
             "--config", str(write_cfg(tmp_path, {"problem": problem})),
             "--out", str(tmp_path / "b")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(
            "config error: problem: its bounds are past float range ("
        )
        assert not (tmp_path / "b" / "bounds.yaml").exists()

    def test_bounds_far_from_own_half_space(self, tmp_path):
        # each component's own half-space mass Phi(-30 sqrt(3 beta)) underflows
        problem = {"family": "gaussian_mixture", "dimension": 3, "center_scale": -30.0}
        path = write_cfg(tmp_path, {"problem": problem})
        assert main(["bounds", "--config", str(path),
                     "--out", str(tmp_path / "b")]) == 0
        table = yaml.safe_load((tmp_path / "b" / "bounds.yaml").read_text())
        assert all(math.isfinite(v) for v in table.values())
        assert 0.0 < table["overlap_floor"] < table["overlap_mc"] <= 1.0

    def test_bounds_overlap_log_q_not_finite_exits_3(self, tmp_path):
        # finite closed forms, but the overlap's draws square past float range
        problem = {"family": "gaussian_mixture", "dimension": 3,
                   "center_scale": 1.7577070741974516e181}
        proc = subprocess.run(
            [sys.executable, "-m", "modesmc", "bounds",
             "--config", str(write_cfg(tmp_path, {"problem": problem})),
             "--out", str(tmp_path / "b")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "runtime failure: non-finite base log density in batch\n"
        )
        assert not (tmp_path / "b" / "bounds.yaml").exists()

    def test_bounds_gaussian_dimension_ceiling_exits_2(self, tmp_path, capsys):
        d = MAX_OVERLAP_DIMENSION + 1
        problem = {"family": "gaussian_mixture", "dimension": d}
        path = write_cfg(tmp_path, {"problem": problem})
        assert main(["bounds", "--config", str(path),
                     "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: problem.dimension: must be at most {d - 1} for bounds"
        )
        assert err.endswith(f", got {d}\n") and len(err.splitlines()) == 1
        assert not (tmp_path / "b" / "bounds.yaml").exists()

    def test_every_bounds_key_is_read(self, tmp_path):
        # each key the bounds block accepts must change the table it writes
        assert {p for p in _FIELDS if p.startswith("bounds.")} == {
            "bounds.epsilon", "bounds.min_gap"
        }

        def table(problem, block):
            path = write_cfg(tmp_path, {"problem": problem, "bounds": block})
            assert main(["bounds", "--config", str(path),
                         "--out", str(tmp_path / "b")]) == 0
            return yaml.safe_load((tmp_path / "b" / "bounds.yaml").read_text())

        four = {"family": "four_state"}
        n_loose = table(four, {"epsilon": 0.25})["n_particles"]
        assert table(four, {"epsilon": 0.1})["n_particles"] > n_loose
        gauss = {"family": "gaussian_mixture", "dimension": 5}
        assert "t_from_gap" not in table(gauss, {})
        assert table(gauss, {"min_gap": 0.01})["t_from_gap"] > 0


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

    def test_sweep_csv_quotes_values_with_commas(self, tmp_path):
        cfg = self.base()
        cfg["problem"]["dimension"] = 3
        cfg["sweep"] = {"algorithm.pseudo_priors": [[1.0, 1.0]]}
        sweep_from_config(cfg, out_dir=tmp_path / "s")
        with open(tmp_path / "s" / "sweep.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [6, 6]
        assert rows[1][:3] == ["0", "[1.0, 1.0]", "ok"]

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

    def test_unknown_method_points_are_config_errors(self, tmp_path):
        cfg = self.base()
        cfg["problem"]["dimension"] = 3
        cfg["sweep"] = {"algorithm.method": ["bogus", "smc"]}
        results = sweep_from_config(cfg, out_dir=tmp_path / "s")
        statuses = [r["status"] for r in results]
        assert statuses == ["config-error:algorithm.method", "ok"]

    def test_path_through_a_scalar_is_a_config_error(self, tmp_path):
        cfg = self.base()
        cfg["problem"]["dimension"] = 3
        cfg["sweep"] = {"algorithm.seed.x": [1, 2]}
        results = sweep_from_config(cfg, out_dir=tmp_path / "s")
        statuses = [r["status"] for r in results]
        assert statuses == ["config-error:algorithm.seed.x"] * 2
        assert not (tmp_path / "s" / "point_000").exists()
        table = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        assert table[1] == "0,1,config-error:algorithm.seed.x,,,"

    def test_path_that_is_not_a_string_exits_2(self, tmp_path, capsys):
        cfg = self.base()
        cfg["sweep"] = {1: [2]}
        path = write_cfg(tmp_path, cfg)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: sweep.1: ")

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
        assert [line.split(",")[0] for line in table.splitlines()[1:]] == [
            "detailed-balance-exact",
            "restricted-stationarity",
            "warm-mixing-vs-gap-bound",
            "coupling-map",
            "resampling-sandwich",
            "local-7-warmness",
            "conditional-weight-identity",
            "weight-concentration",
            "normalizing-constant",
        ]
