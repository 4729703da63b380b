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
have one law. Only resampling and mutation differ. On the particle path
resampling picks N rows and ``mutate`` moves them. On the count path
resampling draws only the p cell totals n ~ Multinomial(N, p_hat), with
each cell's share of the resampling law (``_resample``). Given those, the
n_j particles of cell j are i.i.d. draws from its share and move
independently, so ``mutate_counts`` carries each share t steps forward
with no randomness (by the t-step matrix on short paths, by t banded
vector steps otherwise) and draws cell j's particles from its carried law
with one multinomial. A stage's draws depend on neither t nor N. The run
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
reduced form that names the family's own ``Lumping``
(``Partition.reduced``, matched by identity) and, for an enumerated
reduced family, it fits the count path (``reduced_problem``); otherwise
the full family runs as given. Weights and cells are functions of the
reduced states, so a lumped run has the full run's law: log z, every
diagnostic and the final reduced states. The final states are lifted from
the LEVELS stream of stage V. Reduced rows (the Gaussian (s, r) rows) are
lifted in ``run`` and classified by the full partition; their log q must
be finite, as every state on the particle path is. A count-path run (the
spin levels) returns its level population and that stream unused, and
``final_states`` lifts the expanded level rows from a copy of it on each
read, so a run at the paper's N holds O(d) numbers and every read gives
the same rows. Its ``final_cells`` are the level cells expanded, which the
reduced form declares to be the lifted rows' cells; a level's rows share
its log q, checked finite when the run starts. Siblings of a resampled
parent are independent here, not on the full path: only the joint law of
the final states differs, and ``estimate`` keeps its mean for any f.

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
from .kernels import multinomial_counts, stage_kernel

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
    other run raises ValueError before its first draw. On the count path
    the draw gives only the cell totals, and the trace splits each total
    over its cell's share of the resampling law, drawn last from the same
    RESAMPLE stream: a traced run equals an untraced one, and each stage's
    trace has the resampled counts' law given the run so far, but these
    counts are not the ancestors of the moved population."""

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
    for each stage v = 1..V (on the count path a draw from the resampled
    counts' law, not the moved particles' ancestors; ``RunConfig``).
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
    each state's whole count. On the particle path the draw picks N rows
    and returns them as (states, cells). On the count path it draws the p
    cell totals n ~ Multinomial(N, p_hat) and returns them with the
    resampling law's share in each cell, as (laws, totals): row j of the
    (p, m) array ``laws`` is that law restricted to cell j and normalised
    (zeros where n_j = 0), so the resampled particles of cell j are n_j
    i.i.d. draws from it. Returns that pair and the stage's diagnostics;
    all-zero weights raise WeightCollapseError, and a cell weight sum past
    float range raises InvalidStateError.
    """
    log_total = _logsumexp(log_mass)
    if not np.isfinite(log_total):
        raise WeightCollapseError(stage)
    log_cell = np.full(p, -np.inf)
    masks = [cells == j for j in range(p)]
    for j, mask in enumerate(masks):
        if mask.any():
            log_cell[j] = _logsumexp(log_mass[mask])
    with np.errstate(over="ignore"):
        w_hat = np.exp(log_cell - np.log(n))
    if not np.all(np.isfinite(w_hat)):  # log z stays finite; w_hat cannot
        raise InvalidStateError(f"stage {stage} weight sum past float range")
    before = _histogram(cells, counts, p)
    probs = np.exp(log_cell - log_total)
    if counts is None:
        pick = np.exp(log_mass - log_mass.max())
        idx = gen.choice(n, size=n, p=pick / pick.sum())
        drawn = states[idx], cells[idx]
        after = _histogram(drawn[1], None, p)
    else:
        after = gen.multinomial(n, probs / probs.sum())
        laws = np.zeros((p, cells.size))
        for j in np.flatnonzero(after):
            laws[j, masks[j]] = np.exp(log_mass[masks[j]] - log_cell[j])
        drawn = laws, after
    diag = StepDiagnostics(
        stage=stage,
        cell_weight_sums=w_hat,
        resample_probs=probs,
        occupancy_before=before,
        occupancy_after=after,
        log_z_increment=float(log_total - np.log(n)),
    )
    return drawn, diag


def takes_counts(family) -> bool:
    """Whether ``run`` steps ``family`` on the count path: an index family
    of at most ``COUNT_PATH_MAX_STATES`` states (module docstring)."""
    return family.kind == "index" and family.index_log_mass.size <= COUNT_PATH_MAX_STATES


def reduced_problem(family: AnnealedFamily, partition: Partition):
    """The (family, partition, lumping) that ``run`` steps: the family's
    ``Lumping`` with its reduced family and the partition's reduced form
    where the partition declares one that names that lumping and, for an
    enumerated reduced family, it fits the count path; otherwise the
    given pair and None (module docstring)."""
    lumping, reduced = family.lumping, partition.reduced
    if (
        lumping is None
        or reduced is None
        or reduced.lumping is not lumping
        or (lumping.family.kind == "index" and not takes_counts(lumping.family))
    ):
        return family, partition, None
    return lumping.family, reduced, lumping


def run(config: RunConfig) -> RunReport:
    """Execute a full run; deterministic given the config (incl. seed)."""
    family, partition, lumping = reduced_problem(config.family, config.partition)
    n, t = config.n_particles, config.mutation_steps
    restrict = partition if config.restricted else None
    if config.record_resampled and family.kind != "index":
        raise ValueError("record_resampled needs an index population")
    gen = rngmod.stream(config.seed, 0, rngmod.INIT)
    if takes_counts(family):
        states = np.arange(family.index_log_mass.size)
        with np.errstate(**QUIET_LOG_Q):
            lm0 = family.index_log_mult + family.betas[0] * finite_log_q(
                family.index_log_mass
            )
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
        drawn, diag = _resample(
            v, n, log_mass, states, cells, counts, gen, partition.n_cells
        )
        diagnostics.append(diag)
        kernel = stage_kernel(family, v, step_size=config.step_size)
        if counts is None:
            states, cells = drawn
            if config.record_resampled:
                trace.append(_histogram(states, None, family.index_log_mass.size))
            gen = rngmod.stream(config.seed, v, rngmod.MUTATE)
            states = kernel.mutate(
                states, t, gen, cells=cells, partition=restrict, workers=config.workers
            )
            if restrict is None:
                with np.errstate(**QUIET_LOG_Q):
                    cells = partition.classify(states)
        else:
            if config.record_resampled:  # the last draw from this stream
                trace.append(multinomial_counts(*drawn, gen))
            gen = rngmod.stream(config.seed, v, rngmod.MUTATE)
            counts = kernel.mutate_counts(*drawn, t, gen, partition=restrict)
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
