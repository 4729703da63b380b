"""Configuration, orchestration, and serialized outputs.

One YAML config file drives every subcommand:

    problem:            # which annealed family
      family: ising     # ising | gaussian_mixture | four_state
      dimension: 15
      alpha: 1.0
    algorithm:
      method: smc       # smc | pt | st
      particles: 2000
      mutation_steps: 50
      seed: 7
    output:
      directory: out

Unknown keys anywhere are rejected (exit 2, message names the offending
path). Command run-<method> runs only a config whose algorithm.method is
that method. Runs write a per-stage diagnostics CSV with a fixed column
order plus a YAML summary carrying provenance (config hash, seed,
version); identical effective configs produce byte-identical diagnostics
files regardless of --threads. Every YAML the CLI writes or prints goes
through one dumper: libyaml's C emitter where PyYAML was built with it,
which emits the same text as the pure-Python ``SafeDumper`` it falls
back to.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import hashlib
import io
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from . import bounds as boundsmod
from . import checks, rng as rngmod, tempering
from .discrete import DiscreteSpace, reference_four_state
from .engine import (
    RunConfig,
    RunReport,
    WeightCollapseError,
    cell_tracking_error,
    reduced_problem,
    run,
    takes_counts,
)
from .families import (
    InvalidStateError,
    analytic_catalog,
    gaussian_mixture_target,
    ising_target,
)

DIAGNOSTIC_COLUMNS = (
    "stage",
    "cell",
    "w_hat",
    "p_hat",
    "occupancy_before",
    "occupancy_after",
    "log_z_increment",
    "config_hash",
    "seed",
)

_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


_NUMBER = (int, float)
METHODS = ("smc", "pt", "st")  # algorithm.method; command run-<method> runs it

# dotted path -> (type, test, requirement); the test covers what the type
# alone does not. Sizes stop below 2**63, the longest axis numpy takes; numpy
# refuses an array of 2**63 bytes or more, and the machine far less (a
# MemoryError, exit 3). The sigma test is what gaussian_mixture_target
# computes: 1/(2 sigma**2) must be finite and nonzero. The bounds ranges are
# what bounds.lambda_of and gap_based_t_bound accept.
_FIELDS = {
    "problem.family": (str, None, None),
    "problem.dimension": (int, None, None),
    "problem.alpha": (_NUMBER, None, None),
    "problem.weight": (_NUMBER, lambda v: 0 < v < 1, "must be in (0, 1)"),
    "problem.sigma": (
        _NUMBER,
        lambda v: v > 0
        and 1 / sys.float_info.max < 2.0 * float(v) * float(v) < math.inf,
        "must be positive with 1/(2 sigma**2) finite and nonzero",
    ),
    "problem.center_scale": (_NUMBER, None, None),
    "algorithm.method": (str, lambda v: v in METHODS, "must be smc, pt or st"),
    "algorithm.particles": (int, lambda v: 1 <= v < 2**63, "must be in 1..2**63-1"),
    "algorithm.mutation_steps": (
        int, lambda v: 0 <= v < 2**63, "must be in 0..2**63-1"
    ),
    "algorithm.sweeps": (int, lambda v: 0 <= v < 2**63, "must be in 0..2**63-1"),
    "algorithm.seed": (int, lambda v: 0 <= v < 2**64, "must be in 0..2**64-1"),
    "algorithm.step_size": (_NUMBER, lambda v: v > 0, "must be positive"),
    "algorithm.restricted": (bool, None, None),
    "algorithm.pseudo_priors": (list, None, None),
    "algorithm.replicates": (int, lambda v: 1 <= v < 2**63, "must be in 1..2**63-1"),
    "output.directory": (str, None, None),
    "bounds.epsilon": (_NUMBER, lambda v: 0 < v <= 0.5, "must be in (0, 1/2]"),
    "bounds.min_gap": (_NUMBER, lambda v: 0 < v <= 1, "must be in (0, 1]"),
}
_BLOCKS = {path.split(".")[0] for path in _FIELDS}


def _check_field(field: str, value, path: str):
    """Check a value against the _FIELDS entry of field; None means unset.
    Errors name path, which is field itself or the flag that overrides it."""
    if value is None:
        return
    kind, test, requirement = _FIELDS[field]
    # YAML true/false pass isinstance(_, int); only bool fields take them
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(path, f"expected {kind}, got {type(value).__name__}")
    if kind is _NUMBER and not _finite(value):
        raise ConfigError(path, f"must be finite, got {_shown(value)}")
    if test is not None and not test(value):
        raise ConfigError(path, f"{requirement}, got {_shown(value)}")


def _shown(value) -> str:
    """A value for an error message; long integers by their digit count."""
    if isinstance(value, int) and len(str(abs(value))) > 20:
        return f"an integer of {len(str(abs(value)))} digits"
    return repr(value)


def _finite(value) -> bool:
    """Whether a numeric field's value is a finite float once converted."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past float range
        return False


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a mapping")
    for key, block in cfg.items():
        if key == "sweep":  # free-form dotted paths to value lists
            if not isinstance(block, dict):
                raise ConfigError(key, "must be a mapping of dotted paths to lists")
            for path, values in block.items():
                if not (isinstance(path, str) and isinstance(values, list) and values):
                    msg = "must be a dotted path to a nonempty list"
                    raise ConfigError(f"{key}.{path}", msg)
            continue
        if key not in _BLOCKS:
            raise ConfigError(key, "unknown key")
        if not isinstance(block, dict):
            raise ConfigError(key, "must be a mapping")
        for sub, value in list(block.items()):
            path = f"{key}.{sub}"
            if path not in _FIELDS:
                raise ConfigError(path, "unknown key")
            _check_field(path, value, path)
            if value is None:  # a YAML null leaves the key unset
                del block[sub]
    return cfg


def _require(cfg, block, key):
    value = cfg.get(block, {}).get(key)
    if value is None:
        raise ConfigError(f"{block}.{key}", "required field is missing")
    return value


def _dump(data) -> str:
    return yaml.dump(data, Dumper=_DUMPER, sort_keys=True)


def serialize_config(cfg: dict) -> str:
    return _dump(cfg)


def parse_config(text: str) -> dict:
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("<root>", f"not valid YAML: {exc}") from None
    except ValueError as exc:  # e.g. an integer past Python's digit limit
        raise ConfigError("<root>", f"unreadable value: {exc}") from None
    except RecursionError:
        raise ConfigError("<root>", "nested too deeply to read") from None
    return validate_config(cfg)


def config_hash(cfg: dict) -> str:
    """Hash of the semantic blocks only; output paths don't change identity."""
    semantic = {k: cfg.get(k) for k in ("problem", "algorithm") if k in cfg}
    return hashlib.sha256(serialize_config(semantic).encode()).hexdigest()[:12]


def build_problem(cfg: dict):
    """Return (family, partition, truth) where truth is a catalog or space."""
    name = _require(cfg, "problem", "family")
    prob = cfg.get("problem", {})
    if name == "ising":
        d = _require(cfg, "problem", "dimension")
        if d < 1 or d % 2 == 0:
            raise ConfigError(
                "problem.dimension", f"must be odd and positive for ising, got {d}"
            )
        family, partition = ising_target(d, prob.get("alpha", 1.0))
        return family, partition, analytic_catalog(family)
    if name == "gaussian_mixture":
        d = _require(cfg, "problem", "dimension")
        if d < 2:
            raise ConfigError(
                "problem.dimension", f"must be at least 2 for gaussian_mixture, got {d}"
            )
        nu = prob.get("center_scale", 1.0)
        if not math.isfinite(nu * math.sqrt(d)):  # the centres' distance from 0
            msg = f"times sqrt(dimension) must be finite, got {_shown(nu)}"
            raise ConfigError("problem.center_scale", msg)
        family, partition = gaussian_mixture_target(
            d, w=prob.get("weight", 0.5), sigma=prob.get("sigma", 1.0), nu=nu
        )
        return family, partition, analytic_catalog(family)
    if name == "four_state":
        space = reference_four_state()
        return space.to_family(), space.to_partition(), space
    raise ConfigError("problem.family", f"unknown family {name!r}")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_diagnostics_csv(path: Path, report: RunReport, cfg_hash: str):
    lines = [",".join(DIAGNOSTIC_COLUMNS)]
    for diag in report.diagnostics:
        for j in range(diag.resample_probs.shape[0]):
            lines.append(
                ",".join(
                    _fmt(x)
                    for x in (
                        diag.stage,
                        j,
                        diag.cell_weight_sums[j],
                        diag.resample_probs[j],
                        diag.occupancy_before[j],
                        diag.occupancy_after[j],
                        diag.log_z_increment,
                        cfg_hash,
                        report.seed,
                    )
                )
            )
    _write(path, "\n".join(lines) + "\n")


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_summary(path: Path, summary: dict):
    _write(path, _dump(summary))


def _provenance(cfg: dict) -> dict:
    """A summary's provenance: config hash, algorithm.seed and version."""
    seed = int(_require(cfg, "algorithm", "seed"))
    return {"config_hash": config_hash(cfg), "seed": seed, "version": __version__}


def _particle_count(n: int, family, partition) -> int:
    """n, unless the run steps particle rows and N rows of d 8-byte numbers
    reach the 2**63 bytes numpy refuses outright (below that a refusal is a
    MemoryError, exit 3). A count-path run holds no row."""
    if takes_counts(reduced_problem(family, partition)[0]):
        return n
    if n * max(family.dimension, 1) * 8 >= 2**63:
        msg = f"times dimension times 8 bytes must be below 2**63, got {_shown(n)}"
        raise ConfigError("algorithm.particles", msg)
    return n


def run_smc_from_config(cfg: dict, threads: int, out_dir: Path):
    """Run the engine R = algorithm.replicates times and write its outputs.

    One run writes diagnostics.csv and its figures into the summary. With
    R > 1, replicate r runs under seed substream_seed(seed, r), writes
    replicate_<r>/diagnostics.csv, and the summary lists every run with
    the mean and SD of their log z. Returns (report, summary), or (the R
    reports, summary).
    """
    summary = _provenance(cfg)  # a missing seed is reported first
    family, partition, truth = build_problem(cfg)
    algo = cfg.get("algorithm", {})
    config = RunConfig(
        family=family,
        partition=partition,
        n_particles=_particle_count(
            _require(cfg, "algorithm", "particles"), family, partition
        ),
        mutation_steps=_require(cfg, "algorithm", "mutation_steps"),
        seed=summary["seed"],
        step_size=algo.get("step_size"),
        workers=threads,
        restricted=algo.get("restricted", True),
    )
    replicates = algo.get("replicates", 1)
    seeds = (
        [config.seed]
        if replicates <= 1
        else [rngmod.substream_seed(config.seed, r) for r in range(replicates)]
    )
    reports, runs = [], []
    for r, seed in enumerate(seeds):
        report = run(dataclasses.replace(config, seed=seed))
        occupancy = np.bincount(
            report.cells, weights=report.counts, minlength=partition.n_cells
        ) / config.n_particles
        reports.append(report)
        runs.append({
            "seed": int(seed),
            "log_z": float(report.log_z),
            "cell_occupancy": [float(x) for x in occupancy],
            "stage_seconds": [float(s) for s in report.stage_seconds],
            "max_tracking_error": float(cell_tracking_error(report, truth).max()),
        })
        sub = out_dir if replicates <= 1 else out_dir / f"replicate_{r:03d}"
        write_diagnostics_csv(sub / "diagnostics.csv", report, summary["config_hash"])
    summary.update({
        "method": "smc",
        "n_particles": int(config.n_particles),
        "mutation_steps": int(config.mutation_steps),
        "n_stages": int(family.n_stages),
        "replicates": len(seeds),
    })
    if replicates <= 1:
        summary.update(runs[0])
    else:
        log_zs = [e["log_z"] for e in runs]
        with np.errstate(over="ignore", invalid="ignore"):
            mean, sd = float(np.mean(log_zs)), float(np.std(log_zs, ddof=1))
        if not (math.isfinite(mean) and math.isfinite(sd)):  # log z near 1e308
            raise InvalidStateError("replicates' log z mean or SD past float range")
        summary["log_z_mean"], summary["log_z_sd"] = mean, sd
        summary["runs"] = runs
    _write_summary(out_dir / "summary.yaml", summary)
    return (reports[0] if replicates <= 1 else reports), summary


def _st_pseudo_priors(cfg, family, partition):
    algo = cfg.get("algorithm", {})
    given = algo.get("pseudo_priors")
    if given is not None:
        n = family.n_stages + 1
        if len(given) != n or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool)
            and 0 < p <= sys.float_info.max
            for p in given
        ):
            raise ConfigError(
                "algorithm.pseudo_priors", f"must be {n} finite positive numbers"
            )
        return np.log(np.asarray(given, dtype=float))
    # default: the engine's own running normalizing-constant estimates
    config = RunConfig(
        family=family,
        partition=partition,
        n_particles=_particle_count(algo.get("particles", 1000), family, partition),
        mutation_steps=algo.get("mutation_steps", 20),
        seed=_require(cfg, "algorithm", "seed"),
    )
    report = run(config)
    return -np.concatenate([[0.0], report.log_z_by_stage])


def run_tempering_from_config(cfg: dict, out_dir: Path) -> dict:
    """Run replica exchange (method pt) or simulated tempering (st)."""
    family, partition, _ = build_problem(cfg)
    method = _require(cfg, "algorithm", "method")
    algo = cfg.get("algorithm", {})
    sweeps = _require(cfg, "algorithm", "sweeps")
    summary = _provenance(cfg)
    seed = summary["seed"]
    if method == "pt":
        result = tempering.pt_run(family, sweeps, seed, step_size=algo.get("step_size"))
        crossing = tempering.mode_crossing_report(result.target_trace, partition)
        summary.update(
            {
                "method": "pt",
                "sweeps": sweeps,
                "swap_acceptance": [float(x) for x in result.swap_acceptance],
                "crossings_per_sweep": float(crossing.crossings_per_sweep),
                "occupancy": [float(x) for x in crossing.occupancy],
            }
        )
    else:
        log_pseudo = _st_pseudo_priors(cfg, family, partition)
        result = tempering.st_run(
            family, sweeps, seed, log_pseudo, step_size=algo.get("step_size")
        )
        occupancy = result.temp_counts / sweeps if sweeps else []
        summary.update(
            {
                "method": "st",
                "sweeps": sweeps,
                "temperature_occupancy": [float(x) for x in occupancy],
                "pseudo_priors_log": [float(x) for x in log_pseudo],
            }
        )
    _write_summary(out_dir / "summary.yaml", summary)
    return summary


def _run_method(cfg: dict, threads: int, out_dir: Path) -> dict:
    """Run the config's algorithm.method and return its summary."""
    if _require(cfg, "algorithm", "method") == "smc":
        return run_smc_from_config(cfg, threads, out_dir)[1]
    return run_tempering_from_config(cfg, out_dir)


# bounds' Monte Carlo overlap draws 100_000 states of d floats at each of the
# ~d ln d stages of a gaussian_mixture: 327 s and 525 MiB at d = 120 on a
# loaded 2-core x86 VM, so GiBs and tens of hours at d = 2000
MAX_OVERLAP_DIMENSION = 128


def bounds_from_config(cfg: dict, out_dir: Path) -> dict:
    family, partition, truth = build_problem(cfg)
    if family.name == "gaussian-mixture" and family.dimension > MAX_OVERLAP_DIMENSION:
        raise ConfigError(
            "problem.dimension",
            f"must be at most {MAX_OVERLAP_DIMENSION} for bounds on gaussian_mixture,"
            " whose Monte Carlo overlap draws 100000 states of d floats at each of"
            f" its ~d ln d stages, got {family.dimension}",
        )
    block = cfg.get("bounds", {})
    epsilon = block.get("epsilon", 0.25)
    exact = isinstance(truth, DiscreteSpace)  # enumerated: exact gaps too
    try:
        min_gap = checks.min_restricted_gap(truth) if exact else None
        out = boundsmod.bounds_table(truth, epsilon, block.get("min_gap", min_gap))
    except OverflowError as exc:  # e.g. W = exp(alpha d / 2), or mu* near 0
        msg = f"its bounds are past float range ({exc.args[-1]})"
        raise ConfigError("problem", msg) from None
    if exact:
        out["overlap_exact"] = boundsmod.overlap_discrete(truth)
    elif family.name == "gaussian-mixture":
        seed = cfg.get("algorithm", {}).get("seed", 0)
        out["overlap_mc"], out["overlap_mc_se"] = boundsmod.overlap_monte_carlo(
            family, partition, truth, n_draws=100_000,
            rng=rngmod.stream(seed, 0, rngmod.REPLICATE),
        )
    out["epsilon"] = epsilon
    _write_summary(out_dir / "bounds.yaml", out)
    return out


# ---------------------------------------------------------------------------
# sweep orchestration.


def _apply_override(cfg: dict, dotted: str, value):
    *parents, leaf = dotted.split(".")
    node = cfg
    for p in parents:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(dotted, f"runs through {p}, which is not a mapping")
    node[leaf] = value


def sweep_from_config(cfg: dict, threads: int = 1, out_dir: Path = Path("out")):
    grid = cfg.get("sweep")
    if grid is None:
        raise ConfigError("sweep", "sweep block is required for the sweep command")
    paths = sorted(grid)
    combos = list(itertools.product(*(grid[p] for p in paths))) if paths else []
    if len(combos) > 1000:
        raise ConfigError("sweep", f"grid too large: {len(combos)} > 1000 points")

    def run_point(item):
        k, combo = item
        point_cfg = copy.deepcopy({x: y for x, y in cfg.items() if x != "sweep"})
        row = {"point": k, **dict(zip(paths, combo))}
        try:
            for path, value in zip(paths, combo):
                _apply_override(point_cfg, path, value)
            validate_config(point_cfg)
            summary = _run_method(point_cfg, 1, out_dir / f"point_{k:03d}")
            row["status"] = "ok"
            for key in ("log_z", "max_tracking_error", "crossings_per_sweep"):
                if key in summary:
                    row[key] = summary[key]
        except WeightCollapseError as exc:
            row["status"] = f"weight-collapse-stage-{exc.stage}"
        except ConfigError as exc:
            row["status"] = f"config-error:{exc.path}"
        except ValueError as exc:
            row["status"] = f"invalid-point:{exc}"
        return row

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run_point, enumerate(combos)))

    columns = ["point", *paths, "status", "log_z", "max_tracking_error",
               "crossings_per_sweep"]
    rows = [[_fmt(row[c]) if c in row else "" for c in columns] for row in results]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([columns, *rows])
    _write(out_dir / "sweep.csv", text.getvalue())
    return results


# ---------------------------------------------------------------------------
# entry point.


def _load(args) -> dict:
    if args.config is None:
        raise ConfigError("--config", "a config file is required")
    path = Path(args.config)
    if not path.exists():
        raise ConfigError("--config", f"no such file: {path}")
    cfg = parse_config(path.read_text())
    if args.seed is not None:
        cfg.setdefault("algorithm", {})["seed"] = args.seed
    if args.replicates is not None:
        cfg.setdefault("algorithm", {})["replicates"] = args.replicates
    return cfg


def _out_dir(args, cfg) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(cfg.get("output", {}).get("directory", "out"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modesmc",
        description="Partition-restricted sequential Monte Carlo toolkit",
    )
    parser.add_argument("command", choices=[
        "run-smc", "run-pt", "run-st", "bounds", "verify", "sweep",
    ])
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--seed", type=int, help="override algorithm.seed")
    parser.add_argument("--out", help="override output.directory")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--replicates", type=int, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="reduced-size verify suite")
    args = parser.parse_args(argv)

    try:
        _check_field("algorithm.seed", args.seed, "--seed")
        _check_field("algorithm.replicates", args.replicates, "--replicates")
        if args.threads < 1:
            raise ConfigError("--threads", f"must be at least 1, got {args.threads}")
        if args.command == "verify":
            seed = args.seed if args.seed is not None else checks.VERIFY_SEED
            rows = checks.verify_suite(seed=seed, quick=args.quick)
            width = max(len(r[0]) for r in rows)
            for name, passed, detail in rows:
                print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
            lines = ["check,passed,detail"]
            for name, passed, detail in rows:
                lines.append(f"{name},{str(bool(passed))},\"{detail}\"")
            _write(_out_dir(args, {}) / "verify.csv", "\n".join(lines) + "\n")
            return 0 if all(r[1] for r in rows) else 1

        cfg = _load(args)
        out = _out_dir(args, cfg)
        if args.command.startswith("run-"):
            want, method = args.command[4:], _require(cfg, "algorithm", "method")
            if method != want:
                raise ConfigError("algorithm.method", f"expected {want}, got {method}")
            print(_dump(_run_method(cfg, args.threads, out)))
        elif args.command == "bounds":
            table = bounds_from_config(cfg, out_dir=out)
            for key in sorted(table):
                print(f"{key}: {table[key]}")
        elif args.command == "sweep":
            results = sweep_from_config(cfg, threads=args.threads, out_dir=out)
            n_ok = sum(r["status"] == "ok" for r in results)
            print(f"{n_ok}/{len(results)} sweep points succeeded")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (WeightCollapseError, InvalidStateError, MemoryError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
