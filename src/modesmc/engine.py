"""The particle engine: initialize, resample, restricted mutation, estimators.

One run executes

    X_0 ~ mu_0 i.i.d.                       (initialize)
    for v = 1..V:
        multinomial resampling by w_v       (resample)
        t restricted kernel steps at beta_v (mutate)

recording per-stage diagnostics: per-cell weight sums, resampling
probabilities, occupancies, and the log normalizing-constant increment.
Mutation calls the ``mutate`` (or ``mutate_counts``) of the kernel
``stage_kernel`` returns, with the run's partition when it is restricted
and none when it is not.

Two law-equivalent execution paths exist. The generic path tracks an
array of particle states. For enumerated (index) families the engine
instead tracks per-state particle counts: conditionally on the counts the
particles are exchangeable and every recorded quantity is a symmetric
function of the population. The walk's rows have at most three nonzero
entries (left, stay, right), so each mutation step splits every state's
count by two binomial draws vectorised over all states
(``DiscreteNeighborWalk.mutate_counts``). These count dynamics have
exactly the distribution of per-particle simulation, cost O(m) per step
for m states whatever N is, and support particle counts in the millions.
Both paths compute the stage diagnostics with one function, from the log
weight of each particle or of each occupied state's whole count.

Output is a pure function of (config, seed): all randomness comes from
counter-based per-(stage, phase) Philox streams, and mutation noise comes
from one SFC64 generator per fixed block of particles, keyed from the
stage's MUTATE stream (``kernels`` module docstring), so worker count
never changes the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import logsumexp

from . import rng as rngmod
from .families import AnnealedFamily, Partition
from .kernels import RestrictedKernel, stage_kernel

COUNT_PATH_MAX_STATES = 2048
ENGINE_MODES = ("auto", "particles", "counts")


class WeightCollapseError(RuntimeError):
    """Every particle weight vanished at some stage."""

    def __init__(self, stage: int):
        super().__init__(f"weight collapse at stage {stage}")
        self.stage = stage


@dataclass(frozen=True)
class RunConfig:
    family: AnnealedFamily
    partition: Partition
    n_particles: int
    mutation_steps: int
    seed: int
    step_size: Optional[float] = None
    workers: int = 1
    engine_mode: str = "auto"  # auto | particles | counts
    restricted: bool = True
    record_resampled: bool = False

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if self.mutation_steps < 0:
            raise ValueError("mutation step count must be >= 0")
        if self.engine_mode not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {self.engine_mode!r}")

    def uses_counts(self) -> bool:
        if self.engine_mode == "counts":
            if self.family.kind != "index":
                raise ValueError("count engine requires an enumerated family")
            return True
        return (
            self.engine_mode == "auto"
            and self.family.kind == "index"
            and self.family.index_log_mass.size <= COUNT_PATH_MAX_STATES
        )


@dataclass
class ParticleSystem:
    """N particle states with their cell labels at stage v."""

    states: np.ndarray
    cells: np.ndarray
    v: int

    @property
    def n(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class StepDiagnostics:
    stage: int
    cell_weight_sums: np.ndarray  # w_hat per cell
    resample_probs: np.ndarray  # p_hat per cell
    occupancy_before: np.ndarray
    occupancy_after: np.ndarray
    log_z_increment: float


@dataclass
class RunReport:
    config: RunConfig
    seed: int
    final_states: np.ndarray
    final_cells: np.ndarray
    diagnostics: list
    log_z: float
    stage_seconds: list = field(default_factory=list)
    resampled_trace: Optional[list] = None

    @property
    def log_z_by_stage(self) -> np.ndarray:
        return np.cumsum([d.log_z_increment for d in self.diagnostics])


def initialize(config: RunConfig) -> ParticleSystem:
    """Draw N i.i.d. initial-stage particles and label their cells."""
    gen = rngmod.stream(config.seed, 0, rngmod.INIT)
    states = config.family.sample_initial(config.n_particles, gen)
    cells = config.partition.classify(states)
    return ParticleSystem(states=states, cells=cells, v=0)


def _stage_diagnostics(stage, log_mass, cells, n, p, occupancy_before):
    """Collapse check and per-cell log weight sums of one stage.

    ``log_mass`` is the log weight of each particle (particle path) or of
    each state's whole count (count path), and ``cells`` its cell labels.
    Runs before the resampling draw, so it returns the log total weight
    with diagnostics whose ``occupancy_after`` the caller fills in after
    the draw.
    """
    log_total = logsumexp(log_mass)
    if not np.isfinite(log_total):
        raise WeightCollapseError(stage)
    log_cell = np.full(p, -np.inf)
    for j in range(p):
        mask = cells == j
        if mask.any():
            log_cell[j] = logsumexp(log_mass[mask])
    diag = StepDiagnostics(
        stage=stage,
        cell_weight_sums=np.exp(log_cell - np.log(n)),
        resample_probs=np.exp(log_cell - log_total),
        occupancy_before=occupancy_before,
        occupancy_after=None,
        log_z_increment=float(log_total - np.log(n)),
    )
    return log_total, diag


def _resample_from_log(system, logw, gen, partition, stage):
    _, diag = _stage_diagnostics(
        stage,
        logw,
        system.cells,
        system.n,
        partition.n_cells,
        partition.occupancy(system.cells),
    )
    probs = np.exp(logw - logw.max())
    idx = gen.choice(system.n, size=system.n, p=probs / probs.sum())
    states = system.states[idx]
    cells = system.cells[idx]
    diag = replace(diag, occupancy_after=partition.occupancy(cells))
    return ParticleSystem(states=states, cells=cells, v=system.v), diag


def resample(system: ParticleSystem, weights, rng, partition: Partition, stage=None):
    """Multinomial resampling: N independent categorical draws by weight.

    Returns the resampled system and the stage diagnostics. All-zero
    weights abort with WeightCollapseError.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (system.n,):
        raise ValueError("need one weight per particle")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and nonnegative")
    stage = system.v + 1 if stage is None else stage
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    return _resample_from_log(system, logw, rng, partition, stage)


def mutate(system: ParticleSystem, kernel: RestrictedKernel, t: int, rng, workers=1):
    """Advance every particle t restricted steps; cells cannot change."""
    states = kernel.mutate(system.states, system.cells, t, rng, workers=workers)
    return ParticleSystem(states=states, cells=system.cells.copy(), v=system.v)


def _run_particles(config: RunConfig) -> RunReport:
    family, partition = config.family, config.partition
    system = initialize(config)
    diagnostics, seconds, trace = [], [], []
    for v in range(1, family.n_stages + 1):
        tic = time.perf_counter()
        logw = family.log_weight(v, system.states)
        system, diag = _resample_from_log(
            system, logw, rngmod.stream(config.seed, v, rngmod.RESAMPLE), partition, v
        )
        if config.record_resampled:
            trace.append(_trace_snapshot(system.states, family))
        states = stage_kernel(family, v, step_size=config.step_size).mutate(
            system.states,
            config.mutation_steps,
            rngmod.stream(config.seed, v, rngmod.MUTATE),
            cells=system.cells,
            partition=partition if config.restricted else None,
            workers=config.workers,
        )
        cells = system.cells if config.restricted else partition.classify(states)
        system = ParticleSystem(states=states, cells=cells, v=v)
        diagnostics.append(diag)
        seconds.append(time.perf_counter() - tic)
    return RunReport(
        config=config,
        seed=config.seed,
        final_states=system.states,
        final_cells=system.cells,
        diagnostics=diagnostics,
        log_z=float(sum(d.log_z_increment for d in diagnostics)),
        stage_seconds=seconds,
        resampled_trace=trace if config.record_resampled else None,
    )


def _trace_snapshot(states, family):
    if family.kind == "index":
        return np.bincount(states, minlength=family.index_log_mass.size)
    return np.array(states, copy=True)


def _run_counts(config: RunConfig) -> RunReport:
    family, partition = config.family, config.partition
    base_lm = family.index_log_mass
    m = base_lm.size
    state_ids = np.arange(m)
    labels = partition.classify(state_ids)
    p = partition.n_cells
    n = config.n_particles

    def occupancy(c):
        return np.bincount(labels, weights=c, minlength=p).astype(np.int64)

    lm0 = family.betas[0] * base_lm
    probs0 = np.exp(lm0 - lm0.max())
    probs0 /= probs0.sum()
    counts = rngmod.stream(config.seed, 0, rngmod.INIT).multinomial(n, probs0)

    diagnostics, seconds, trace = [], [], []
    for v in range(1, family.n_stages + 1):
        tic = time.perf_counter()
        with np.errstate(divide="ignore"):
            log_mass = np.log(counts)  # -inf on empty states
        log_mass += (family.betas[v] - family.betas[v - 1]) * base_lm
        log_total, diag = _stage_diagnostics(
            v, log_mass, labels, n, p, occupancy(counts)
        )
        pick = np.exp(log_mass - log_total)
        pick /= pick.sum()
        gen = rngmod.stream(config.seed, v, rngmod.RESAMPLE)
        counts = gen.multinomial(n, pick)
        if config.record_resampled:
            trace.append(counts.copy())
        diagnostics.append(replace(diag, occupancy_after=occupancy(counts)))
        counts = stage_kernel(family, v).mutate_counts(
            counts,
            config.mutation_steps,
            rngmod.stream(config.seed, v, rngmod.MUTATE),
            partition=partition if config.restricted else None,
        )
        seconds.append(time.perf_counter() - tic)

    final_states = np.repeat(state_ids, counts)
    return RunReport(
        config=config,
        seed=config.seed,
        final_states=final_states,
        final_cells=np.repeat(labels, counts),
        diagnostics=diagnostics,
        log_z=float(sum(d.log_z_increment for d in diagnostics)),
        stage_seconds=seconds,
        resampled_trace=trace if config.record_resampled else None,
    )


def run(config: RunConfig) -> RunReport:
    """Execute a full run; deterministic given the config (incl. seed)."""
    if config.uses_counts():
        return _run_counts(config)
    return _run_particles(config)


def estimate(report: RunReport, f: Callable) -> float:
    """The terminal estimator mean of f over final particles, |f| <= 1."""
    values = np.asarray(f(report.final_states), dtype=float)
    if values.shape != (report.final_states.shape[0],):
        raise ValueError("f must map the particle batch to one value each")
    if np.any(np.abs(values) > 1.0 + 1e-12):
        raise ValueError("estimator requires |f| <= 1")
    return float(values.mean())


def estimate_log_partition(report: RunReport) -> float:
    """Estimate of log(z_V / z_0): the summed log weight-mean increments."""
    return float(sum(d.log_z_increment for d in report.diagnostics))


def cell_tracking_error(report: RunReport, catalog) -> np.ndarray:
    """Per-stage max_j |p_hat_v_j - mu_v(A_j)| against the cell_mass_table
    of a catalog or space."""
    table = catalog.cell_mass_table()
    errs = [
        np.max(np.abs(d.resample_probs - table[d.stage]))
        for d in report.diagnostics
    ]
    return np.asarray(errs)
