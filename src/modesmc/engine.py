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

One loop runs both population representations, a pair (states, counts);
the family alone picks one. On the particle path ``states`` holds one row
per particle and ``counts`` is None. On the count path, for an index family
of at most ``COUNT_PATH_MAX_STATES`` states, ``states`` holds each state
once and ``counts`` its particles. Given the counts the particles are
exchangeable and every recorded quantity is symmetric in them, so both
have one law. Only resampling (particle rows, or a multinomial over
states) and mutation (``mutate``, or ``mutate_counts``: on a short path
one multinomial draw a state over its row of the exact t-step matrix, at
a cost that does not grow with t, and otherwise two binomial draws per
step over all states; neither grows with N) differ. The run
returns its population as it is (``RunReport``): on the count path each
state once with its count, so a run at N = 1e10 holds O(m) numbers.
``final_states`` and ``final_cells`` expand it to N rows, ordered by
state, only where they are read.

Lumped families. A family may carry a ``Lumping``: a reduced family onto
which its stage kernel, restricted or not, lumps exactly, and a ``lift``
that draws a full state uniformly given its reduced one (the spin model's
magnetisation levels and the Gaussian mixture's (s, r) rows; each family's
constructor in ``families`` gives its exactness argument). The engine runs
the reduced family iff the partition declares its cells there with a
reduced form that names the family's own ``Lumping`` (``Partition.reduced``,
matched by identity) and, for an enumerated reduced family, it fits the
count path; otherwise the full family runs as given. Weights and cells are
functions of the reduced states, so a lumped run has the full run's law:
log z, every diagnostic and the final reduced states. The final states
are lifted from the LEVELS stream of stage V. Reduced rows (the Gaussian
(s, r) rows) are lifted in ``run`` and classified by the full partition;
their log q must be finite, as every state on the particle path is. A
count-path run (the spin levels) returns its level population and that
stream unused, and ``final_states`` lifts the expanded level rows from a
copy of it on each read, so a run at the paper's N holds O(d) numbers and
every read gives the same rows. Its ``final_cells`` are the level cells
expanded, which the reduced form declares to be the lifted rows' cells; a
level's rows share its log q, checked finite when the run starts.
Siblings of a resampled parent are independent here, not on the full
path: only the joint law of the final states differs, and ``estimate``
keeps its mean for any f.

Output is a pure function of (config, seed): all randomness comes from
counter-based per-(stage, phase) Philox streams, and mutation noise comes
from one SFC64 generator per fixed block of particles, keyed from the
stage's MUTATE stream (``kernels`` module docstring), so worker count
never changes the result.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng as rngmod
from .families import QUIET_LOG_Q, AnnealedFamily, InvalidStateError, Partition
from .families import finite_log_q
from .kernels import stage_kernel

COUNT_PATH_MAX_STATES = 2048


class WeightCollapseError(RuntimeError):
    """Every particle weight vanished at some stage."""

    def __init__(self, stage: int):
        super().__init__(f"weight collapse at stage {stage}")
        self.stage = stage


@dataclass(frozen=True)
class RunConfig:
    """One run's inputs. A family with a ``Lumping`` runs on its reduced
    states where the partition declares its cells there (module
    docstring). ``record_resampled`` keeps each stage's per-state counts
    after its resampling draw; it needs an index population (the count or
    particle path of an index family, lumped levels included), and any
    other run raises ValueError before its first draw."""

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
    """A run's final population and diagnostics.

    ``states`` and ``cells`` hold one row per particle with ``counts`` None
    (the particle path, and a lumped run on reduced rows after its lift),
    or one row per state holding ``counts`` particles (the count path, the
    spin levels included). ``final_states`` and ``final_cells`` are the N
    particle rows either way, ordered by state on the count path; they are
    expanded on every read and never kept, so a report stays O(m) whatever
    N is. On the levels ``lift`` and ``levels`` are set: ``final_states``
    lifts the expanded rows from a copy of the unused ``levels`` stream on
    every read, so each read gives the same full states (module
    docstring). ``resampled_trace`` is None unless ``record_resampled``,
    and otherwise holds one int64 count vector over the run's index states
    for each stage v = 1..V.
    """

    seed: int
    states: np.ndarray
    cells: np.ndarray
    diagnostics: list
    log_z: float
    counts: Optional[np.ndarray] = None
    stage_seconds: list = field(default_factory=list)
    resampled_trace: Optional[list] = None
    lift: Optional[Callable] = None
    levels: Optional[np.random.Generator] = None

    def _rows(self, per_state):
        if self.counts is None:
            return per_state
        return np.repeat(per_state, self.counts, axis=0)

    @property
    def final_states(self) -> np.ndarray:
        rows = self._rows(self.states)
        if self.lift is None:
            return rows
        return self.lift(rows, copy.deepcopy(self.levels))

    @property
    def final_cells(self) -> np.ndarray:
        return self._rows(self.cells)

    @property
    def log_z_by_stage(self) -> np.ndarray:
        return np.cumsum([d.log_z_increment for d in self.diagnostics])


def _histogram(labels, counts, size):
    """Particles per label, from one label per particle (``counts`` None)
    or one per state holding ``counts`` particles, summed in int64: exact
    for any N below 2**63, where float weights lose counts past 2**53."""
    if counts is None:
        return np.bincount(labels, minlength=size).astype(np.int64, copy=False)
    out = np.zeros(size, dtype=np.int64)
    np.add.at(out, labels, counts)
    return out


def _logsumexp(a: np.ndarray) -> float:
    """``scipy.special.logsumexp(a)`` of a nonempty float vector, bit for bit.

    scipy 1.17's algorithm without its array-API dispatch, which cost ~120
    us a call against ~7 us for this: the max, the count m of entries
    equal to it, s = sum of exp(a - max) over the rest (those m entries
    set to -inf, so the pairwise sum adds the same terms in the same
    order), divided by m where s != 0, then log1p(s) + log(m) + max. A
    result that is not finite (all -inf, say) is log(sum(exp(a))), as in
    scipy.
    """
    top = a.max()
    at_top = a == top
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.exp(np.where(at_top, -np.inf, a) - top).sum()
        m = float(np.count_nonzero(at_top))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + top
        if not np.isfinite(out):
            with np.errstate(over="ignore"):
                out = np.log(np.exp(a).sum())
    return out


def _resample(stage, n, log_mass, states, cells, counts, gen, p):
    """Stage diagnostics and the multinomial resampling draw of a population.

    ``log_mass`` is the log weight of each particle (``counts`` None) or of
    each state's whole count. The draw picks N particle rows, or N states
    into new counts. Returns the resampled (states, cells, counts) and the
    stage's diagnostics; all-zero weights raise WeightCollapseError, and a
    cell weight sum past float range raises InvalidStateError.
    """
    log_total = _logsumexp(log_mass)
    if not np.isfinite(log_total):
        raise WeightCollapseError(stage)
    log_cell = np.full(p, -np.inf)
    for j in range(p):
        mask = cells == j
        if mask.any():
            log_cell[j] = _logsumexp(log_mass[mask])
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


def _initial_counts(family):
    """The count path's states and their stage-0 log masses, or None for a
    family that runs on particles (module docstring)."""
    base = family.index_log_mass
    if family.kind != "index" or base.size > COUNT_PATH_MAX_STATES:
        return None
    with np.errstate(**QUIET_LOG_Q):
        lm0 = family.index_log_mult + family.betas[0] * finite_log_q(base)
    return np.arange(base.size), lm0


def run(config: RunConfig) -> RunReport:
    """Execute a full run; deterministic given the config (incl. seed)."""
    family, partition, n = config.family, config.partition, config.n_particles
    lumping = family.lumping
    if partition.reduced is None or partition.reduced.lumping is not lumping:
        lumping = None  # a reduced form runs only with the lumping it names
    reduced = family if lumping is None else lumping.family
    if reduced.kind == "index" and reduced.index_log_mass.size > COUNT_PATH_MAX_STATES:
        lumping = None  # an enumerated reduced family must fit the count path
    if lumping is not None:  # run on the reduced states (module docstring)
        family, partition = lumping.family, partition.reduced
    restrict = partition if config.restricted else None
    if config.record_resampled and family.kind != "index":
        raise ValueError("record_resampled needs an index population")
    gen = rngmod.stream(config.seed, 0, rngmod.INIT)
    start = _initial_counts(family)
    if start is not None:
        states, lm0 = start
        probs0 = np.exp(lm0 - lm0.max())
        counts = gen.multinomial(n, probs0 / probs0.sum())
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
        gen = rngmod.stream(config.seed, v, rngmod.RESAMPLE)
        states, cells, counts, diag = _resample(
            v, n, log_mass, states, cells, counts, gen, partition.n_cells
        )
        diagnostics.append(diag)
        if config.record_resampled:
            trace.append(_histogram(states, counts, family.index_log_mass.size))
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
    lift = levels = None
    if lumping is not None:  # a uniform full state of each reduced one
        levels = rngmod.stream(config.seed, family.n_stages, rngmod.LEVELS)
        if counts is not None:  # lifted on read (module docstring)
            lift = lumping.lift
        else:
            states, levels = lumping.lift(states, levels), None
            with np.errstate(**QUIET_LOG_Q):  # finite, as on the particle path
                finite_log_q(config.family.log_q(states))
                cells = config.partition.classify(states)
    return RunReport(
        seed=config.seed,
        states=states,
        cells=cells,
        counts=counts,
        diagnostics=diagnostics,
        log_z=float(sum(d.log_z_increment for d in diagnostics)),
        stage_seconds=seconds,
        resampled_trace=trace if config.record_resampled else None,
        lift=lift,
        levels=levels,
    )


def estimate(report: RunReport, f: Callable) -> float:
    """The terminal estimator mean of f over final particles, |f| <= 1.

    On the count path f is evaluated once per state and weighted by its
    count: the mean over the expanded rows, bit for bit where f takes
    integer values (an indicator), and to rounding otherwise. On the spin
    levels f reads the N lifted ``final_states``.
    """
    states, counts = report.states, report.counts
    if report.lift is not None:  # f reads the lifted full states
        states, counts = report.final_states, None
    values = np.asarray(f(states), dtype=float)
    if values.shape != (states.shape[0],):
        raise ValueError("f must map the particle batch to one value each")
    if not np.all(np.abs(values) <= 1.0 + 1e-12):  # NaN too
        raise ValueError("estimator requires |f| <= 1")
    if counts is None:
        return float(values.mean())
    return float(np.dot(values, counts) / counts.sum())


def cell_tracking_error(report: RunReport, catalog) -> np.ndarray:
    """Per-stage max_j |p_hat_v_j - mu_v(A_j)| against the cell_mass_table
    of a catalog or space."""
    table = catalog.cell_mass_table()
    errs = [
        np.max(np.abs(d.resample_probs - table[d.stage]))
        for d in report.diagnostics
    ]
    return np.asarray(errs)
