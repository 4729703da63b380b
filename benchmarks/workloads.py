"""The benchmark's workloads: inputs, exact references and output checks.

Every input is a function of the workload seed: the problem shapes are
fixed and op ``i`` runs under the master seed ``op_seed(seed, i)``.
References come from closed forms (the Gaussian catalog, the spin model's
magnetisation levels) or from an exact ``DiscreteSpace``; they are
computed while the inputs are built, outside every timed region.

Output checks compare each run with its reference at ``TOLERANCE_SE``
standard errors. The standard errors are fixed by the problem, not by
the runs:

* log z: the SMC central limit variance (Del Moral 2004) with
  multinomial resampling at every stage,
  ``sum_p Var_{mu_p}(h_p) / mu_p(h_p)^2 / N`` with
  ``h_p = G_{p+1} M_{p+1} h_{p+1}`` and ``h_{V-1} = G_V``. On finite
  spaces (enumerated states, spin magnetisation levels) it is computed
  exactly with the workload's own restricted kernels ``M = K^t``. On the
  continuous mixture it is taken with exactly mixing kernels, which gives
  ``sum_v chi2(mu_v || mu_{v-1}) / N``, with
  ``1 + chi2 = z(b_{v-1}) z(2 b_v - b_{v-1}) / z(b_v)^2``.
* final cell fraction: restricted kernels freeze cell occupancy between
  resamples, so each of the V + 1 multinomial draws adds ``p(1-p)/N``.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.special import logsumexp

import modesmc
import modesmc.cli

TOLERANCE_SE = 6.0
ACCURACY_OPS = 4  # ops whose errors feed the accuracy figures
_CHUNK = 1 << 20


def op_seed(seed: int, i: int) -> int:
    """Master seed of op i of a run with workload seed `seed`."""
    return (seed << 20) | i


@dataclass(frozen=True)
class Reference:
    """Exact quantities of one tempered problem."""

    betas: tuple
    log_partition: Callable[[float], float]  # log sum/integral of q**beta
    cell_probs: Callable[[int], np.ndarray]  # mu_v(A_j) for every cell j
    classify: Callable[[np.ndarray], np.ndarray]  # cell of each state
    log_z_var: float  # N * Var(log Z-hat) as N grows

    @property
    def stages(self) -> int:
        return len(self.betas) - 1

    @property
    def log_z(self) -> float:
        """log(z_V / z_0)."""
        return self.log_partition(self.betas[-1]) - self.log_partition(self.betas[0])

    def log_z_se(self, n: int) -> float:
        return math.sqrt(self.log_z_var / n)

    def cell_se(self, n: int) -> np.ndarray:
        p = self.cell_probs(self.stages)
        return np.sqrt((self.stages + 1) * p * (1.0 - p) / n)

    def tracking_error(self, report) -> float:
        """max over stages and cells of |p_hat_v,j - mu_v(A_j)|."""
        return max(
            float(np.max(np.abs(d.resample_probs - self.cell_probs(d.stage))))
            for d in report.diagnostics
        )


def mixing_variance(log_partition, betas) -> float:
    """sum_v chi2(mu_v || mu_{v-1}): the CLT variance with exactly mixing kernels."""
    lp = log_partition
    return sum(
        math.expm1(lp(b0) + lp(2.0 * b1 - b0) - 2.0 * lp(b1))
        for b0, b1 in zip(betas, betas[1:])
    )


def kernel_variance(log_mult, base, betas, step, t) -> float:
    """The CLT variance of log Z-hat on finite levels with kernels K_v^t.

    Level i carries multiplicity exp(log_mult[i]) and log q = base[i];
    step(v) is the one-step restricted transition matrix at stage v.
    """
    h = np.ones(base.size)
    var = 0.0
    for p in range(len(betas) - 2, -1, -1):
        if p < len(betas) - 2:
            P = step(p + 1)
            for _ in range(t):
                h = P @ h
        h = h * np.exp((betas[p + 1] - betas[p]) * (base - base.max()))
        h /= h.max()
        lm = log_mult + betas[p] * base
        mu = np.exp(lm - lm.max())
        mu /= mu.sum()
        var += (mu @ h**2) / (mu @ h) ** 2 - 1.0
    return float(var)


def _gaussian_reference(family, t) -> Reference:
    catalog = modesmc.analytic_catalog(family)

    def classify(x):
        return np.where(np.asarray(x, dtype=float).sum(axis=1) > 0.0, 0, 1)

    var = mixing_variance(catalog.log_z, family.betas)
    return Reference(
        family.betas, catalog.log_z, catalog.cell_probability, classify, var
    )


def _spin_reference(family, t) -> Reference:
    # the spin model lumps exactly onto the d + 1 magnetisation levels k
    # (number of +1 spins): log z(beta) is a sum over them, and single-site
    # flip moves k by one with probabilities (d - k)/d and k/d
    d, alpha = family.params["d"], family.params["alpha"]
    k = np.arange(d + 1)
    log_mult = np.array([math.log(math.comb(d, int(j))) for j in k])
    energy = alpha / (2.0 * d) * (2.0 * k - d) ** 2
    cell = np.where(2 * k - d >= 0, 0, 1)

    def log_partition(beta):
        return float(logsumexp(log_mult + beta * energy))

    def step(v):
        beta = family.betas[v]
        P = np.zeros((d + 1, d + 1))
        for j in k:
            for nb, pick in ((j + 1, (d - j) / d), (j - 1, j / d)):
                if 0 <= nb <= d and cell[nb] == cell[j]:
                    accept = min(1.0, math.exp(beta * (energy[nb] - energy[j])))
                    P[j, nb] = pick * accept
            P[j, j] = 1.0 - P[j].sum()
        return P

    def classify(x):
        return np.where(np.asarray(x).sum(axis=1) >= 0, 0, 1)

    var = kernel_variance(log_mult, energy, family.betas, step, t)
    # odd d and spin-flip symmetry: both sign cells hold mass 1/2 at every stage
    return Reference(
        family.betas, log_partition, lambda v: np.array([0.5, 0.5]), classify, var
    )


def _space_reference(space, t) -> Reference:
    base = space.base_log_mass
    family, partition = space.to_family(), space.to_partition()

    def log_partition(beta):
        return float(logsumexp(beta * base))

    def step(v):
        kernel = modesmc.stage_kernel(family, v)
        return modesmc.transition_matrix(modesmc.RestrictedKernel(kernel, partition))

    var = kernel_variance(np.zeros(base.size), base, space.betas, step, t)
    return Reference(
        space.betas, log_partition, space.cell_probs, lambda x: space.labels[x], var
    )


def two_basin_space(m: int = 512, stages: int = 5):
    """A tilted double well on a path of m states, cells split at the barrier."""
    x = np.linspace(-1.0, 1.0, m)
    base = -6.0 * (x * x - 1.0) ** 2 + 0.6 * x
    middle = slice(m // 4, 3 * m // 4)
    barrier = m // 4 + int(np.argmin(base[middle]))
    labels = (np.arange(m) > barrier).astype(np.int64)
    betas = np.linspace(0.1, 1.0, stages + 1)
    return modesmc.DiscreteSpace.tempered(base, betas, labels)


def fingerprint(report) -> tuple:
    """(log_z, digest of final states and cells): equal iff the outputs are."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(report.final_states).data)
    h.update(np.ascontiguousarray(report.final_cells).data)
    return (float(report.log_z), h.hexdigest())


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; an op is one call of `call`."""

    name: str
    n: int  # particles per run
    t: int  # mutation steps per stage
    d: int  # state dimension
    ref: Reference
    family: object = None
    partition: object = None
    cfg: Optional[dict] = None  # set when the op goes through the CLI
    out_dir: Optional[Path] = None

    @property
    def stages(self) -> int:
        return self.ref.stages

    @property
    def moves_per_op(self) -> int:
        return self.n * self.t * self.stages

    def shape(self) -> dict:
        return {
            "N": self.n,
            "t": self.t,
            "V": self.stages,
            "d": self.d,
            "moves_per_op": self.moves_per_op,
        }

    def prepare(self, seed: int):
        """Untimed per-op input: a RunConfig, or a CLI config and a fresh
        output directory (files are never rewritten while ops are timed)."""
        if self.cfg is None:
            return modesmc.RunConfig(
                family=self.family,
                partition=self.partition,
                n_particles=self.n,
                mutation_steps=self.t,
                seed=seed,
            )
        cfg = copy.deepcopy(self.cfg)
        cfg["algorithm"]["seed"] = seed
        return cfg, self.out_dir / f"op-{seed}"

    def call(self, inputs, workers: int = 1):
        """The timed op. Returns (run report, (CLI summary, output dir) or None)."""
        if self.cfg is None:
            if workers != 1:
                inputs = replace(inputs, workers=workers)
            return modesmc.run(inputs), None
        cfg, out_dir = inputs
        report, summary = modesmc.cli.run_smc_from_config(
            cfg, threads=workers, out_dir=out_dir
        )
        return report, (summary, out_dir)

    def check(self, output) -> list:
        """Failures of one op's output against the exact reference."""
        report, cli_out = output
        errors = self._check_run(report)
        if cli_out is not None:
            errors += self._check_cli(report, *cli_out)
        return errors

    def _check_run(self, report) -> list:
        ref, n = self.ref, self.n
        states, cells = report.final_states, report.final_cells
        if states.shape[0] != n or cells.shape != (n,):
            return [f"final population has shape {states.shape}, expected {n} rows"]
        errors = []
        if states.dtype.kind == "f" and not np.all(np.isfinite(states)):
            errors.append("non-finite final state")
        # restricted kernels never move a particle out of its cell
        for a in range(0, n, _CHUNK):
            chunk = slice(a, a + _CHUNK)
            if not np.array_equal(ref.classify(states[chunk]), cells[chunk]):
                errors.append("a final particle left its cell")
                break
        se = ref.log_z_se(n)
        if not abs(report.log_z - ref.log_z) <= TOLERANCE_SE * se:
            errors.append(
                f"log_z {report.log_z:.6f} vs exact {ref.log_z:.6f} (se {se:.2g})"
            )
        p = ref.cell_probs(ref.stages)
        frac = np.bincount(cells, minlength=p.size) / n
        if frac.size != p.size or np.any(
            np.abs(frac - p) > TOLERANCE_SE * ref.cell_se(n)
        ):
            errors.append(f"final cell fractions {frac} vs exact {p}")
        return errors

    def _check_cli(self, report, summary, out_dir) -> list:
        errors = []
        if summary.get("log_z") != report.log_z or summary.get("seed") != report.seed:
            errors.append("CLI summary differs from the run")
        if not (out_dir / "summary.yaml").is_file():
            errors.append("summary.yaml not written")
        path = out_dir / "diagnostics.csv"
        lines = path.read_text().splitlines() if path.is_file() else []
        rows = 1 + self.stages * self.ref.cell_probs(0).size
        seeds = {line.rsplit(",", 1)[-1] for line in lines[1:]}
        if lines[:1] != [",".join(modesmc.cli.DIAGNOSTIC_COLUMNS)] or len(lines) != rows:
            errors.append("diagnostics.csv missing or malformed")
        elif seeds != {str(report.seed)}:
            errors.append("diagnostics.csv was not written by this run")
        return errors

    def errors(self, output) -> tuple:
        """(log_z error, tracking error) of one op."""
        report, _ = output
        return report.log_z - self.ref.log_z, self.ref.tracking_error(report)


# name -> (full size, tiny size used by the self-test)
SIZES = {
    "gauss-particles": ({"n": 5000, "t": 100}, {"n": 500, "t": 10}),
    "spin-particles": ({"n": 2000, "t": 50}, {"n": 500, "t": 10}),
    "enum-counts": ({"n": 10_000_000, "t": 50}, {"n": 100_000, "t": 10}),
}


def build(name: str, tiny: bool, work_dir: Path) -> Workload:
    """Build a workload's inputs and reference (untimed set-up)."""
    size = dict(SIZES[name][1 if tiny else 0])
    if name == "gauss-particles":
        family, partition = modesmc.gaussian_mixture_target(5)
        ref = _gaussian_reference(family, size["t"])
        return Workload(name, d=5, ref=ref, family=family, partition=partition, **size)
    if name == "spin-particles":
        # the acceptance gate-1 problem, run the way the CLI runs a config
        cfg = {
            "problem": {"family": "ising", "dimension": 15, "alpha": 1.0},
            "algorithm": {
                "method": "smc",
                "particles": size["n"],
                "mutation_steps": size["t"],
                "seed": 0,
            },
        }
        family, _, _ = modesmc.cli.build_problem(modesmc.cli.validate_config(cfg))
        ref = _spin_reference(family, size["t"])
        return Workload(name, d=15, ref=ref, cfg=cfg, out_dir=work_dir / name, **size)
    if name == "enum-counts":
        space = two_basin_space()
        return Workload(
            name,
            d=1,
            ref=_space_reference(space, size["t"]),
            family=space.to_family(),
            partition=space.to_partition(),
            **size,
        )
    raise KeyError(name)
