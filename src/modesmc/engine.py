"""The particle engine: one SMC run (``run``) and its estimators.

One run executes

    X_0 ~ mu_0 i.i.d.
    for v = 1..V:
        multinomial resampling by w_v       (_resample)
        t restricted kernel steps at beta_v (the kernel's mutate)

recording per-stage diagnostics: per-cell weight sums, resampling
probabilities, occupancies, and the log normalizing-constant increment.
Mutation calls the ``mutate`` (or ``mutate_counts``) of the kernel
``stage_kernel`` returns, with the run's partition when it is restricted
and none when it is not.

One loop runs both population representations, a pair (states, counts).
The family alone picks one; no setting does. On the particle path
``states`` holds one row per particle and ``counts`` is None. For
enumerated (index) families of at most ``COUNT_PATH_MAX_STATES`` states
the engine instead tracks per-state particle counts: ``states`` is every
state index and ``counts`` holds each state's particles. Conditionally
on the counts the particles are exchangeable and every recorded quantity
is a symmetric function of the population, so both have one law. Only
two steps differ: resampling draws particle rows, or a multinomial over
states; mutation calls ``mutate``, or ``mutate_counts``, which splits
every state's count by two binomial draws vectorised over all states (the
walk's rows have at most three nonzero entries,
``DiscreteNeighborWalk.mutate_counts``).
The rest is written once: a state's log weight is its particle's plus
log count, and the diagnostics, trace and report are shared. The count
dynamics cost O(m) per step for m states whatever N is and support
particle counts in the millions; the final counts are expanded to N rows.

Output is a pure function of (config, seed): all randomness comes from
counter-based per-(stage, phase) Philox streams, and mutation noise comes
from one SFC64 generator per fixed block of particles, keyed from the
stage's MUTATE stream (``kernels`` module docstring), so worker count
never changes the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import logsumexp

from . import rng as rngmod
from .families import QUIET_LOG_Q, AnnealedFamily, InvalidStateError, Partition
from .kernels import stage_kernel

COUNT_PATH_MAX_STATES = 2048


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
    restricted: bool = True
    record_resampled: bool = False

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        if self.mutation_steps < 0:
            raise ValueError("mutation step count must be >= 0")


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


def _histogram(labels, counts, size):
    """Particles per label, from one label per particle (``counts`` None)
    or one per state holding ``counts`` particles."""
    return np.bincount(labels, weights=counts, minlength=size).astype(np.int64)


def _resample(stage, n, log_mass, states, cells, counts, gen, p):
    """Stage diagnostics and the multinomial resampling draw of a population.

    ``log_mass`` is the log weight of each particle (``counts`` None) or of
    each state's whole count. The draw picks N particle rows, or N states
    into new counts. Returns the resampled (states, cells, counts) and the
    stage's diagnostics; all-zero weights raise WeightCollapseError, and a
    cell weight sum past float range raises InvalidStateError.
    """
    log_total = logsumexp(log_mass)
    if not np.isfinite(log_total):
        raise WeightCollapseError(stage)
    log_cell = np.full(p, -np.inf)
    for j in range(p):
        mask = cells == j
        if mask.any():
            log_cell[j] = logsumexp(log_mass[mask])
    with np.errstate(over="ignore"):
        w_hat = np.exp(log_cell - np.log(n))
    if not np.all(np.isfinite(w_hat)):  # log z stays finite; w_hat cannot
        raise InvalidStateError(f"stage {stage} weight sum past float range")
    before = _histogram(cells, counts, p)
    if counts is None:
        probs = np.exp(log_mass - log_mass.max())
        idx = gen.choice(n, size=n, p=probs / probs.sum())
        states, cells = states[idx], cells[idx]
    else:
        pick = np.exp(log_mass - log_total)
        counts = gen.multinomial(n, pick / pick.sum())
    diag = StepDiagnostics(
        stage=stage,
        cell_weight_sums=w_hat,
        resample_probs=np.exp(log_cell - log_total),
        occupancy_before=before,
        occupancy_after=_histogram(cells, counts, p),
        log_z_increment=float(log_total - np.log(n)),
    )
    return states, cells, counts, diag


def run(config: RunConfig) -> RunReport:
    """Execute a full run; deterministic given the config (incl. seed)."""
    family, partition, n = config.family, config.partition, config.n_particles
    restrict = partition if config.restricted else None
    gen = rngmod.stream(config.seed, 0, rngmod.INIT)
    if family.kind == "index" and family.index_log_mass.size <= COUNT_PATH_MAX_STATES:
        lm0 = family.betas[0] * family.index_log_mass
        probs0 = np.exp(lm0 - lm0.max())
        states, counts = np.arange(lm0.size), gen.multinomial(n, probs0 / probs0.sum())
    else:
        states, counts = family.sample_initial(n, gen), None
    with np.errstate(**QUIET_LOG_Q):  # a row sum past float range keeps its sign
        cells = partition.classify(states)
    diagnostics, seconds, trace = [], [], []
    for v in range(1, family.n_stages + 1):
        tic = time.perf_counter()
        log_mass = family.log_weight(v, states)
        if counts is not None:
            with np.errstate(divide="ignore"):
                log_mass += np.log(counts)  # -inf on empty states
        states, cells, counts, diag = _resample(
            v, n, log_mass, states, cells, counts,
            rngmod.stream(config.seed, v, rngmod.RESAMPLE), partition.n_cells,
        )
        diagnostics.append(diag)
        if config.record_resampled:  # index families: a histogram over states
            if family.kind == "index":
                trace.append(_histogram(states, counts, family.index_log_mass.size))
            else:
                trace.append(states.copy())
        kernel = stage_kernel(family, v, step_size=config.step_size)
        gen = rngmod.stream(config.seed, v, rngmod.MUTATE)
        if counts is None:
            states = kernel.mutate(
                states, config.mutation_steps, gen, cells=cells,
                partition=restrict, workers=config.workers,
            )
            if restrict is None:
                with np.errstate(**QUIET_LOG_Q):
                    cells = partition.classify(states)
        else:
            counts = kernel.mutate_counts(
                counts, config.mutation_steps, gen, partition=restrict
            )
        seconds.append(time.perf_counter() - tic)
    if counts is not None:  # one row per particle, as callers index them
        states, cells = np.repeat(states, counts), np.repeat(cells, counts)
    return RunReport(
        config=config,
        seed=config.seed,
        final_states=states,
        final_cells=cells,
        diagnostics=diagnostics,
        log_z=float(sum(d.log_z_increment for d in diagnostics)),
        stage_seconds=seconds,
        resampled_trace=trace if config.record_resampled else None,
    )


def estimate(report: RunReport, f: Callable) -> float:
    """The terminal estimator mean of f over final particles, |f| <= 1."""
    values = np.asarray(f(report.final_states), dtype=float)
    if values.shape != (report.final_states.shape[0],):
        raise ValueError("f must map the particle batch to one value each")
    if np.any(np.abs(values) > 1.0 + 1e-12):
        raise ValueError("estimator requires |f| <= 1")
    return float(values.mean())


def cell_tracking_error(report: RunReport, catalog) -> np.ndarray:
    """Per-stage max_j |p_hat_v_j - mu_v(A_j)| against the cell_mass_table
    of a catalog or space."""
    table = catalog.cell_mass_table()
    errs = [
        np.max(np.abs(d.resample_probs - table[d.stage]))
        for d in report.diagnostics
    ]
    return np.asarray(errs)
