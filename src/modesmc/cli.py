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
path). Runs write a per-stage diagnostics CSV with a fixed column order
plus a YAML summary carrying provenance (config hash, seed, version);
identical effective configs produce byte-identical diagnostics files
regardless of --threads.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
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
from .discrete import reference_four_state
from .engine import (
    ENGINE_MODES,
    RunConfig,
    RunReport,
    WeightCollapseError,
    cell_tracking_error,
    run,
)
from .families import analytic_catalog, gaussian_mixture_target, ising_target
from .kernels import mixing_time_bound, spectral_gap, stage_kernel, transition_matrix

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


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


_SCHEMA = {
    "problem": {
        "family": str,
        "dimension": int,
        "alpha": (int, float),
        "weight": (int, float),
        "sigma": (int, float),
        "center_scale": (int, float),
    },
    "algorithm": {
        "method": str,
        "particles": int,
        "mutation_steps": int,
        "sweeps": int,
        "seed": int,
        "step_size": (int, float),
        "engine": str,
        "restricted": bool,
        "pseudo_priors": list,
        "replicates": int,
    },
    "output": {"directory": str},
    "bounds": {
        "epsilon": (int, float),
        "w": (int, float),
        "z": (int, float),
        "mu_star": (int, float),
        "p": int,
        "gamma": (int, float),
        "pi_star": (int, float),
        "min_gap": (int, float),
    },
    "sweep": None,  # free-form dotted paths to value lists
}

# (block, key) -> (test, requirement) for values whose type alone is not enough
_LIMITS = {
    ("algorithm", "particles"): (lambda v: v >= 1, "must be at least 1"),
    ("algorithm", "mutation_steps"): (lambda v: v >= 0, "must be at least 0"),
    ("algorithm", "sweeps"): (lambda v: v >= 0, "must be at least 0"),
    ("algorithm", "step_size"): (lambda v: v > 0, "must be positive"),
    ("algorithm", "replicates"): (lambda v: v >= 1, "must be at least 1"),
    ("algorithm", "seed"): (lambda v: 0 <= v < 2**64, "must be in 0..2**64-1"),
    ("algorithm", "engine"): (
        lambda v: v in ENGINE_MODES,
        "must be one of " + ", ".join(ENGINE_MODES),
    ),
}


def _check_limit(block: str, key: str, value, path: str):
    if value is None or (block, key) not in _LIMITS:
        return
    test, requirement = _LIMITS[(block, key)]
    if not test(value):
        raise ConfigError(path, f"{requirement}, got {value!r}")


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a mapping")
    for key, block in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(key, "unknown key")
        allowed = _SCHEMA[key]
        if allowed is None:
            if not isinstance(block, dict):
                raise ConfigError(key, "must be a mapping of dotted paths to lists")
            for path, values in block.items():
                if not isinstance(values, list) or not values:
                    raise ConfigError(f"{key}.{path}", "must be a nonempty list")
            continue
        if not isinstance(block, dict):
            raise ConfigError(key, "must be a mapping")
        for sub, value in block.items():
            if sub not in allowed:
                raise ConfigError(f"{key}.{sub}", "unknown key")
            if value is None:
                continue
            # YAML true/false pass isinstance(_, int); only bool fields take them
            if not isinstance(value, allowed[sub]) or (
                isinstance(value, bool) and allowed[sub] is not bool
            ):
                raise ConfigError(
                    f"{key}.{sub}",
                    f"expected {allowed[sub]}, got {type(value).__name__}",
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key}.{sub}", f"must be finite, got {value!r}")
            _check_limit(key, sub, value, f"{key}.{sub}")
    return cfg


def _require(cfg, block, key):
    value = cfg.get(block, {}).get(key)
    if value is None:
        raise ConfigError(f"{block}.{key}", "required field is missing")
    return value


def serialize_config(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True)


def parse_config(text: str) -> dict:
    return validate_config(yaml.safe_load(text))


def config_hash(cfg: dict) -> str:
    """Hash of the semantic blocks only; output paths don't change identity."""
    semantic = {k: cfg.get(k) for k in ("problem", "algorithm") if k in cfg}
    return hashlib.sha256(serialize_config(semantic).encode()).hexdigest()[:12]


def build_problem(cfg: dict):
    """Return (family, partition, truth) where truth is a catalog or space."""
    family_tag = _require(cfg, "problem", "family")
    prob = cfg.get("problem", {})
    if family_tag == "ising":
        d = _require(cfg, "problem", "dimension")
        if d < 1 or d % 2 == 0:
            raise ConfigError(
                "problem.dimension", f"must be odd and positive for ising, got {d}"
            )
        family, partition = ising_target(d, prob.get("alpha", 1.0))
        return family, partition, analytic_catalog(family)
    if family_tag == "gaussian_mixture":
        d = _require(cfg, "problem", "dimension")
        if d < 2:
            raise ConfigError(
                "problem.dimension", f"must be at least 2 for gaussian_mixture, got {d}"
            )
        family, partition = gaussian_mixture_target(
            d,
            w=prob.get("weight", 0.5),
            sigma=prob.get("sigma", 1.0),
            nu=prob.get("center_scale", 1.0),
        )
        return family, partition, analytic_catalog(family)
    if family_tag == "four_state":
        space = reference_four_state()
        return space.to_family(), space.to_partition(), space
    raise ConfigError("problem.family", f"unknown family {family_tag!r}")


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
    path.write_text("\n".join(lines) + "\n")


def _summary_common(cfg_hash: str, seed: int) -> dict:
    return {"config_hash": cfg_hash, "seed": int(seed), "version": __version__}


def _write_summary(path: Path, summary: dict):
    path.write_text(yaml.safe_dump(summary, sort_keys=True))


def _one_smc_run(cfg, seed, threads):
    family, partition, truth = build_problem(cfg)
    algo = cfg.get("algorithm", {})
    if algo.get("engine") == "counts" and family.kind != "index":
        raise ConfigError(
            "algorithm.engine",
            f"the count engine needs an enumerated family, not {family.name!r}",
        )
    config = RunConfig(
        family=family,
        partition=partition,
        n_particles=_require(cfg, "algorithm", "particles"),
        mutation_steps=_require(cfg, "algorithm", "mutation_steps"),
        seed=seed,
        step_size=algo.get("step_size"),
        workers=threads,
        engine_mode=algo.get("engine", "auto"),
        restricted=algo.get("restricted", True),
    )
    report = run(config)
    occupancy = (
        np.bincount(report.final_cells, minlength=partition.n_cells)
        / report.final_cells.shape[0]
    )
    tracking = (
        float(cell_tracking_error(report, truth).max()) if truth is not None else None
    )
    return report, occupancy, tracking


def run_smc_from_config(cfg: dict, threads: int = 1, out_dir: Path | None = None):
    """Run the engine (optionally replicated) and serialize its outputs.

    With replicates R > 1 the run repeats under R derived seeds; each
    replicate gets its own diagnostics file and the summary aggregates
    the per-replicate normalizing-constant estimates.
    """
    algo = cfg.get("algorithm", {})
    master_seed = _require(cfg, "algorithm", "seed")
    replicates = algo.get("replicates", 1)
    cfg_hash = config_hash(cfg)
    seeds = (
        [master_seed]
        if replicates <= 1
        else [rngmod.substream_seed(master_seed, r) for r in range(replicates)]
    )
    reports, summaries = [], []
    for r, seed in enumerate(seeds):
        report, occupancy, tracking = _one_smc_run(cfg, seed, threads)
        reports.append(report)
        entry = {
            "seed": int(seed),
            "log_z": float(report.log_z),
            "cell_occupancy": [float(x) for x in occupancy],
            "stage_seconds": [float(s) for s in report.stage_seconds],
        }
        if tracking is not None:
            entry["max_tracking_error"] = tracking
        summaries.append(entry)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            sub = out_dir if replicates <= 1 else out_dir / f"replicate_{r:03d}"
            sub.mkdir(parents=True, exist_ok=True)
            write_diagnostics_csv(sub / "diagnostics.csv", report, cfg_hash)
    summary = _summary_common(cfg_hash, master_seed)
    summary.update(
        {
            "method": "smc",
            "n_particles": int(_require(cfg, "algorithm", "particles")),
            "mutation_steps": int(_require(cfg, "algorithm", "mutation_steps")),
            "n_stages": int(reports[0].config.family.n_stages),
            "replicates": int(len(seeds)),
        }
    )
    if replicates <= 1:
        summary.update(summaries[0])
    else:
        log_zs = [e["log_z"] for e in summaries]
        summary["log_z_mean"] = float(np.mean(log_zs))
        summary["log_z_sd"] = float(np.std(log_zs, ddof=1))
        summary["runs"] = summaries
    if out_dir is not None:
        _write_summary(out_dir / "summary.yaml", summary)
    if replicates <= 1:
        return reports[0], summary
    return reports, summary


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
        n_particles=algo.get("particles", 1000),
        mutation_steps=algo.get("mutation_steps", 20),
        seed=_require(cfg, "algorithm", "seed"),
    )
    report = run(config)
    return -np.concatenate([[0.0], report.log_z_by_stage])


def run_tempering_from_config(cfg: dict, out_dir: Path | None = None):
    family, partition, _ = build_problem(cfg)
    method = _require(cfg, "algorithm", "method")
    algo = cfg.get("algorithm", {})
    sweeps = _require(cfg, "algorithm", "sweeps")
    seed = _require(cfg, "algorithm", "seed")
    cfg_hash = config_hash(cfg)
    summary = _summary_common(cfg_hash, seed)
    if method == "pt":
        result = tempering.pt_run(
            family,
            sweeps,
            seed,
            step_size=algo.get("step_size"),
            record_target_trace=True,
        )
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
    elif method == "st":
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
    else:
        raise ConfigError("algorithm.method", f"not a tempering method: {method}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_summary(out_dir / "summary.yaml", summary)
    return summary


def bounds_from_config(cfg: dict, out_dir: Path | None = None) -> dict:
    family, partition, truth = build_problem(cfg)
    block = cfg.get("bounds", {})
    epsilon = block.get("epsilon", 0.25)
    if hasattr(truth, "stage_probs"):  # enumerated space: everything is exact
        space = truth
        table = space.cell_mass_table()
        inputs = boundsmod.BoundInputs(
            epsilon=epsilon,
            n_stages=space.n_stages,
            p=space.n_cells,
            W=block.get("w", space.weight_bound()),
            Z=block.get("z", space.z_ratio_bound()),
            mu_star=block.get("mu_star", space.mu_star()),
            gamma=block.get("gamma", boundsmod.persistence(table)),
            pi_star=block.get("pi_star", space.pi_star()),
            min_gap=block.get("min_gap", _min_restricted_gap(space)),
        )
        out = boundsmod.bounds_table(inputs)
        out["overlap_exact"] = boundsmod.overlap_discrete(space)
    else:
        catalog = truth
        table = catalog.cell_mass_table()
        inputs = boundsmod.BoundInputs(
            epsilon=epsilon,
            n_stages=catalog.n_stages,
            p=2,
            W=block.get("w", catalog.w_value()),
            Z=block.get("z", catalog.z_value()),
            mu_star=block.get("mu_star", catalog.mu_star()),
            gamma=block.get("gamma", boundsmod.persistence(table)),
            pi_star=block.get("pi_star", float(table[-1].min())),
            min_gap=block.get("min_gap"),
        )
        out = boundsmod.bounds_table(inputs)
        if family.name == "gaussian-mixture":
            seed = cfg.get("algorithm", {}).get("seed", 0)
            delta, se = boundsmod.overlap_monte_carlo(
                family,
                partition,
                catalog,
                n_draws=100_000,
                rng=rngmod.stream(seed, 0, rngmod.REPLICATE),
            )
            out["overlap_mc"] = delta
            out["overlap_mc_se"] = se
    out["epsilon"] = epsilon
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_summary(out_dir / "bounds.yaml", {k: _yamlable(v) for k, v in out.items()})
    return out


def _yamlable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _min_restricted_gap(space) -> float:
    return min(
        spectral_gap(sub, stationary=cond)
        for v in range(1, space.n_stages + 1)
        for sub, cond in checks.restricted_cell_blocks(space, v)
    )


# ---------------------------------------------------------------------------
# verify: the distributional check suite on the reference instance.


VERIFY_SEED = 20240


def verify_suite(seed: int = VERIFY_SEED, quick: bool = False) -> list:
    """Run the standing checks; returns (name, passed, detail) rows."""
    rows = []
    space = reference_four_state()

    def record(name, passed, detail=""):
        rows.append((name, bool(passed), detail))

    # exact restricted stationarity + detailed balance at every stage
    worst_db, worst_st = 0.0, 0.0
    for v in range(1, space.n_stages + 1):
        P = transition_matrix(stage_kernel(space.to_family(), v))
        pi = space.stage_probs(v)
        worst_db = max(worst_db, np.max(np.abs(pi[:, None] * P - (pi[:, None] * P).T)))
        for sub, cond in checks.restricted_cell_blocks(space, v):
            worst_st = max(worst_st, np.max(np.abs(cond @ sub - cond)))
    record("detailed-balance-exact", worst_db < 1e-10, f"max flux asym {worst_db:.2e}")
    record("restricted-stationarity", worst_st < 1e-10, f"max residual {worst_st:.2e}")

    # warm mixing times never exceed the spectral-gap bound
    ok, detail = True, []
    for v in range(1, space.n_stages + 1):
        for j, (sub, cond) in enumerate(checks.restricted_cell_blocks(space, v)):
            gap = spectral_gap(sub, stationary=cond)
            tau = checks.warm_mixing_time(sub, cond, 7, 0.01)
            bound = mixing_time_bound(gap, 0.01, 7)
            ok &= tau <= bound
            detail.append(f"v{v}j{j}:{tau}<={bound}")
    record("warm-mixing-vs-gap-bound", ok, " ".join(detail))

    # coupling correctness on random pairs
    gen = rngmod.stream(seed, 1, rngmod.REPLICATE)
    n_pairs, draws = (5, 20_000) if quick else (20, 200_000)
    ok = True
    for _ in range(n_pairs):
        m = int(gen.integers(2, 9))
        f = gen.dirichlet(np.ones(m))
        g = gen.dirichlet(np.ones(m))
        pair = checks.coupling_map(f, g, gen, size=draws)
        tv = checks.tv_distance(f, g)
        dis = 1.0 - pair.equal.mean()
        se = max(np.sqrt(tv * (1 - tv) / draws), 1e-6)
        ok &= abs(dis - tv) <= 4 * se
        for dist, drawn in ((f, pair.primary), (g, pair.shadow)):
            freq = np.bincount(drawn, minlength=m) / draws
            ses = np.sqrt(np.maximum(dist * (1 - dist), 1e-12) / draws)
            ok &= np.all(np.abs(freq - dist) <= 4 * ses + 1e-9)
    record("coupling-map", ok, f"{n_pairs} random pairs, {draws} draws each")

    # resampling probabilities track cell masses within the phi sandwich
    n_seeds = 30 if quick else 200
    n_particles = 100_000 if quick else boundsmod.particle_bound(
        0.5, space.n_stages, space.n_cells,
        space.weight_bound(), space.z_ratio_bound(), space.mu_star(),
    )
    lam = boundsmod.lambda_of(0.5, space.n_stages)
    f = boundsmod.phi(lam)
    hit = 0
    for r in range(n_seeds):
        report = run(
            RunConfig(
                family=space.to_family(),
                partition=space.to_partition(),
                n_particles=n_particles,
                mutation_steps=20,
                seed=rngmod.substream_seed(seed + 1, r),
            )
        )
        good = all(
            np.all(d.resample_probs <= f**d.stage * space.cell_probs(d.stage) + 1e-15)
            and np.all(
                d.resample_probs >= f**-d.stage * space.cell_probs(d.stage) - 1e-15
            )
            for d in report.diagnostics
        )
        hit += good
    record(
        "resampling-sandwich",
        hit / n_seeds > 0.75,
        f"{hit}/{n_seeds} runs inside at N={n_particles}",
    )

    # local warmness of the resampled marginals
    taus = [
        max(checks.warm_mixing_times(space, v, 7, 1e-3))
        for v in range(1, space.n_stages + 1)
    ]
    warm = checks.local_warmness_report(
        space,
        n_particles=2_000 if quick else 10_000,
        t=max(taus) + 1,
        n_runs=50 if quick else 200,
        seed=seed + 2,
    )
    record(
        "local-7-warmness",
        all(r.ok for r in warm),
        " ".join(f"v{r.stage}:{r.max_ratio:.3f}" for r in warm),
    )

    # conditional weight identity
    idrows = checks.conditional_weight_identity(
        space,
        v=1,
        n_particles=2_000,
        t=25,
        n_runs=200 if quick else 800,
        seed=seed + 3,
    )
    tested = [r for r in idrows if r.ok is not None]
    record(
        "conditional-weight-identity",
        bool(tested) and all(r.ok for r in tested),
        f"{sum(r.ok for r in tested)}/{len(tested)} strata",
    )

    # one-stage concentration bound
    conc = checks.stage_weight_concentration(
        space, n_particles=1_000, lam=0.1, n_runs=2_000 if quick else 10_000,
        seed=seed + 4,
    )
    record(
        "weight-concentration",
        conc.ok,
        f"rate {conc.exceed_rate:.4f} <= bound {conc.bound:.4f} + 3se",
    )

    # normalizing-constant accuracy
    n_z = 20 if quick else 100
    exact = space.log_z(space.n_stages) - space.log_z(0)
    good = 0
    for r in range(n_z):
        report = run(
            RunConfig(
                family=space.to_family(),
                partition=space.to_partition(),
                n_particles=10_000,
                mutation_steps=100,
                seed=rngmod.substream_seed(seed + 5, r),
            )
        )
        good += abs(report.log_z - exact) <= 0.05
    record("normalizing-constant", good >= 0.95 * n_z, f"{good}/{n_z} within 0.05")
    return rows


# ---------------------------------------------------------------------------
# sweep orchestration.


def _apply_override(cfg: dict, dotted: str, value):
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


def sweep_from_config(cfg: dict, threads: int = 1, out_dir: Path = Path("out")):
    grid = cfg.get("sweep")
    if grid is None:
        raise ConfigError("sweep", "sweep block is required for the sweep command")
    paths = sorted(grid)
    combos = list(itertools.product(*(grid[p] for p in paths))) if paths else []
    if len(combos) > 1000:
        raise ConfigError("sweep", f"grid too large: {len(combos)} > 1000 points")
    out_dir.mkdir(parents=True, exist_ok=True)

    def run_point(item):
        k, combo = item
        point_cfg = copy.deepcopy({x: y for x, y in cfg.items() if x != "sweep"})
        for path, value in zip(paths, combo):
            _apply_override(point_cfg, path, value)
        row = {"point": k}
        row.update({p: v for p, v in zip(paths, combo)})
        try:
            validate_config(point_cfg)
            method = _require(point_cfg, "algorithm", "method")
            pdir = out_dir / f"point_{k:03d}"
            if method == "smc":
                _, summary = run_smc_from_config(point_cfg, threads=1, out_dir=pdir)
            else:
                summary = run_tempering_from_config(point_cfg, out_dir=pdir)
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

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_point, enumerate(combos)))
    else:
        results = [run_point(item) for item in enumerate(combos)]

    columns = ["point", *paths, "status", "log_z", "max_tracking_error",
               "crossings_per_sweep"]
    lines = [",".join(columns)]
    for row in results:
        lines.append(",".join(_fmt(row[c]) if c in row else "" for c in columns))
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
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
        _check_limit("algorithm", "seed", args.seed, "--seed")
        _check_limit("algorithm", "replicates", args.replicates, "--replicates")
        if args.threads < 1:
            raise ConfigError("--threads", f"must be at least 1, got {args.threads}")
        if args.command == "verify":
            seed = args.seed if args.seed is not None else VERIFY_SEED
            rows = verify_suite(seed=seed, quick=args.quick)
            width = max(len(r[0]) for r in rows)
            for name, passed, detail in rows:
                print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
            out = Path(args.out) if args.out else Path("out")
            out.mkdir(parents=True, exist_ok=True)
            lines = ["check,passed,detail"]
            for name, passed, detail in rows:
                lines.append(f"{name},{str(bool(passed))},\"{detail}\"")
            (out / "verify.csv").write_text("\n".join(lines) + "\n")
            return 0 if all(r[1] for r in rows) else 1

        cfg = _load(args)
        out = _out_dir(args, cfg)
        if args.command == "run-smc":
            _, summary = run_smc_from_config(cfg, threads=args.threads, out_dir=out)
            print(yaml.safe_dump(summary, sort_keys=True))
        elif args.command in ("run-pt", "run-st"):
            want = "pt" if args.command == "run-pt" else "st"
            method = _require(cfg, "algorithm", "method")
            if method != want:
                raise ConfigError("algorithm.method", f"expected {want}, got {method}")
            summary = run_tempering_from_config(cfg, out_dir=out)
            print(yaml.safe_dump(summary, sort_keys=True))
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
    except WeightCollapseError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
