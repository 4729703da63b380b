"""Empirical and exact checks of the engine's distributional guarantees.

Small enumerated spaces make every quantity exactly computable, so the
claims behind the engine (the coupling construction, warm mixing times,
local warmness of the resampled marginals, the conditional weight
identity, and the weight concentration bound) can each be verified
directly. The checks here are the library form, which the acceptance
tests drive; ``verify_suite`` runs them as one suite on the four-state
reference space, and the `verify` CLI subcommand prints its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds as boundsmod
from . import rng as rngmod
from .discrete import DiscreteSpace, reference_four_state
from .engine import RunConfig, run
from .kernels import (
    cell_submatrix,
    mixing_time_bound,
    restrict_transition_matrix,
    spectral_gap,
    stage_kernel,
    transition_matrix,
)


def tv_distance(p, q) -> float:
    """Total variation distance between two normalized vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support")
    for name, vec in (("p", p), ("q", q)):
        if abs(vec.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not normalized (sum {vec.sum()})")
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class CoupledPair:
    """Draws (primary, shadow) whose marginals are f and g respectively and
    whose disagreement probability is exactly TV(f, g)."""

    primary: np.ndarray
    shadow: np.ndarray

    @property
    def equal(self) -> np.ndarray:
        return self.primary == self.shadow


def coupling_map(f, g, rng, size: int = 1) -> CoupledPair:
    """Couple two distributions on one cell by splitting off their overlap.

    With probability a = sum(min(f, g)) both coordinates take one draw from
    the normalized overlap; otherwise the coordinates are drawn
    independently from the normalized residuals, whose supports are
    disjoint. First marginal f, second marginal g, disagreement TV(f, g).
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError("f and g must live on the same cell")
    for name, vec in (("f", f), ("g", g)):
        if np.any(vec < 0) or abs(vec.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not a distribution")
    h = np.minimum(f, g)
    a = h.sum()
    u = rng.random(size)
    both = u < a

    x = np.empty(size, dtype=np.int64)
    xbar = np.empty(size, dtype=np.int64)
    n_both = int(both.sum())
    if n_both:
        x[both] = xbar[both] = _categorical(rng, h / a, n_both)
    n_rest = size - n_both
    if n_rest:
        fres = f - h
        gres = g - h
        x[~both] = _categorical(rng, fres / fres.sum(), n_rest)
        xbar[~both] = _categorical(rng, gres / gres.sum(), n_rest)
    return CoupledPair(primary=x, shadow=xbar)


def _categorical(rng, probs, size):
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(size), side="right")


# ---------------------------------------------------------------------------
# Warm-start mixing times, computed exactly on enumerated cells.

MAX_VERTEX_STATES = 20
MAX_VERTICES = 500_000
MAX_MIXING_STEPS = 100_000


def warm_start_vertices(mu, M: float) -> np.ndarray:
    """All extreme points of {eta : 0 <= eta <= M mu, sum eta = 1}.

    Each vertex saturates eta = M mu on a subset and parks the remaining
    mass on one boundary state. The sup of any convex functional over the
    M-warm polytope is attained on these.
    """
    mu = np.asarray(mu, dtype=float)
    m = mu.size
    if m > MAX_VERTEX_STATES:
        raise ValueError(f"cell too large for vertex enumeration: {m}")
    if M < 1.0:
        raise ValueError("warm-start constant must be >= 1")
    tol = 1e-12
    verts = []
    subset = np.zeros(m, dtype=bool)

    def rec(i, mass):
        if len(verts) > MAX_VERTICES:
            raise ValueError("vertex enumeration exceeded the cap")
        if i == m:
            residual = 1.0 - M * mass
            if residual <= tol:
                if residual >= -tol:
                    verts.append(M * mu * subset)
                return
            for y in range(m):
                if not subset[y] and M * mu[y] >= residual - tol:
                    vert = M * mu * subset
                    vert[y] = residual
                    verts.append(vert)
            return
        rec(i + 1, mass)  # skip state i
        if M * (mass + mu[i]) <= 1.0 + tol:
            subset[i] = True
            rec(i + 1, mass + mu[i])
            subset[i] = False

    rec(0, 0.0)
    if not verts:
        raise ValueError("no M-warm starts exist (check mu, M)")
    return np.unique(np.round(np.stack(verts), 15), axis=0)


def warm_mixing_time(P_cell: np.ndarray, mu_cell: np.ndarray, M: float,
                     epsilon: float) -> int:
    """Smallest t with sup over M-warm starts of TV(eta P^t, mu) <= eps."""
    P_cell = np.asarray(P_cell, dtype=float)
    mu_cell = np.asarray(mu_cell, dtype=float)
    verts = warm_start_vertices(mu_cell, M)
    dist = verts.copy()
    for t in range(MAX_MIXING_STEPS + 1):
        worst = 0.5 * np.abs(dist - mu_cell).sum(axis=1).max()
        if worst <= epsilon:
            return t
        dist = dist @ P_cell
    raise RuntimeError(
        f"no mixing within {MAX_MIXING_STEPS} steps (worst TV {worst:.3g})"
    )


def restricted_cell_blocks(space: DiscreteSpace, v: int) -> list:
    """Per cell j, the block of the stage-v restricted kernel on cell j and
    the stage-v conditional on that cell, which the block leaves invariant."""
    base = stage_kernel(space.to_family(), v)
    P = restrict_transition_matrix(transition_matrix(base), space.labels)
    return [
        (cell_submatrix(P, space.labels, j), space.conditional(v, j))
        for j in range(space.n_cells)
    ]


def min_restricted_gap(space: DiscreteSpace) -> float:
    """Smallest spectral gap of a restricted kernel block over every stage
    v >= 1 and cell, each block taken against its own cell conditional."""
    return min(
        spectral_gap(sub, stationary=cond)
        for v in range(1, space.n_stages + 1)
        for sub, cond in restricted_cell_blocks(space, v)
    )


def warm_mixing_times(space: DiscreteSpace, v: int, M: float, epsilon: float) -> list:
    """Exact per-cell warm mixing times of the stage-v restricted kernel."""
    return [
        warm_mixing_time(sub, cond, M, epsilon)
        for sub, cond in restricted_cell_blocks(space, v)
    ]


# ---------------------------------------------------------------------------
# Ensemble checks on the engine's resampled marginals.


def _runs(
    space: DiscreteSpace, n_particles: int, t: int, n_runs: int, seed: int, **options
):
    """Yield the reports of n_runs independent engine runs on space, run r
    seeded by substream r of seed; options go to RunConfig."""
    family = space.to_family()
    partition = space.to_partition()
    for r in range(n_runs):
        yield run(
            RunConfig(
                family=family,
                partition=partition,
                n_particles=n_particles,
                mutation_steps=t,
                seed=rngmod.substream_seed(seed, r),
                **options,
            )
        )


@dataclass(frozen=True)
class WarmnessStageReport:
    stage: int
    max_ratio: float
    extinction_rate: float
    ok: bool


def local_warmness_report(
    space: DiscreteSpace, n_particles: int, t: int, n_runs: int, seed: int
) -> list:
    """Estimate sup_x resampled-conditional/exact-conditional per stage;
    a stage is ok when it stays below the warm-start constant M.

    Runs an ensemble of independent seeded runs, pools the post-resampling
    (pre-mutation) per-state frequencies, and compares every within-cell
    singleton against the exact conditional. On a discrete space the
    supremum over subsets is attained at a singleton. Cells that a run
    never populates are excluded from its mean and surface as the
    extinction rate; a cell no run populates yields ratio = inf.
    """
    reports = _runs(space, n_particles, t, n_runs, seed, record_resampled=True)
    # (runs, stages, states): per-state counts after each stage's resampling
    traces = np.array([report.resampled_trace for report in reports], dtype=float)

    rows = []
    for v in range(1, space.n_stages + 1):
        counts = traces[:, v - 1, :]  # (runs, states) after stage-v resampling
        max_ratio = -np.inf
        extinct = 0.0
        for j in range(space.n_cells):
            members = space.cell_states(j)
            cell_counts = counts[:, members]
            totals = cell_counts.sum(axis=1)
            alive = totals > 0
            extinct = max(extinct, 1.0 - alive.mean())
            if not alive.any():
                max_ratio = np.inf
                continue
            cond = cell_counts[alive] / totals[alive, None]
            exact = space.conditional(v, j)
            max_ratio = max(max_ratio, float((cond.mean(axis=0) / exact).max()))
        rows.append(
            WarmnessStageReport(
                stage=v,
                max_ratio=max_ratio,
                extinction_rate=float(extinct),
                ok=bool(max_ratio < boundsmod.WARM_START_M),
            )
        )
    return rows


@dataclass(frozen=True)
class IdentityStratumReport:
    cell: int
    n: int
    predicted: float
    ok: Optional[bool]  # None when the stratum was skipped as too thin


N_STRATA, MIN_STRATUM = 4, 30


def conditional_weight_identity(
    space: DiscreteSpace, v: int, n_particles: int, t: int, n_runs: int, seed: int
) -> list:
    """Check E[w_hat_{v+1}^j | history] = (z_{v+1}/z_v)(mu ratio) p_hat_v^j.

    Replicates are split into N_STRATA strata by the observed resampling
    probability (a history-measurable statistic), and strata of fewer than
    MIN_STRATUM replicates are skipped; within each stratum the mean residual
    between the observed next-stage weight sum and the enumerated
    right-hand side must vanish within 3 standard errors. Requires t large
    enough that the mutated within-cell law is near its conditional.
    """
    if not 1 <= v < space.n_stages:
        raise ValueError(f"need 1 <= v < {space.n_stages}")
    p_hat = np.empty((n_runs, space.n_cells))
    w_next = np.empty((n_runs, space.n_cells))
    for r, report in enumerate(_runs(space, n_particles, t, n_runs, seed)):
        p_hat[r] = report.diagnostics[v - 1].resample_probs
        w_next[r] = report.diagnostics[v].cell_weight_sums

    z_ratio = math.exp(space.log_z(v + 1) - space.log_z(v))
    mass_ratio = space.cell_probs(v + 1) / space.cell_probs(v)
    rows = []
    for j in range(space.n_cells):
        predicted = z_ratio * mass_ratio[j] * p_hat[:, j]
        residual = w_next[:, j] - predicted
        edges = np.quantile(p_hat[:, j], np.linspace(0, 1, N_STRATA + 1))
        strata = np.clip(np.searchsorted(edges, p_hat[:, j], side="right") - 1, 0,
                         N_STRATA - 1)
        for s in range(N_STRATA):
            mask = strata == s
            n = int(mask.sum())
            if n < MIN_STRATUM:
                rows.append(IdentityStratumReport(j, n, np.nan, None))
                continue
            mean_res = float(residual[mask].mean())
            se = float(residual[mask].std(ddof=1) / math.sqrt(n))
            rows.append(
                IdentityStratumReport(
                    cell=j,
                    n=n,
                    predicted=float(predicted[mask].mean()),
                    ok=bool(abs(mean_res) <= 3.0 * se),
                )
            )
    return rows


@dataclass(frozen=True)
class ConcentrationReport:
    exceed_rate: float
    bound: float
    binomial_se: float
    ok: bool


def stage_weight_concentration(
    space: DiscreteSpace,
    n_particles: int,
    lam: float,
    n_runs: int,
    seed: int,
    value_range: tuple = (0.0, 1.0),
) -> ConcentrationReport:
    """Check P(|f_bar - E[f_bar | F]| > lam) <= 4 exp(-N lam^2 / 2(b-a)^2).

    The statistic is the stage-1 mean weight of N i.i.d. initial particles,
    whose conditional mean is enumerable exactly. The empirical exceedance
    over independent replicates must stay within the bound plus 3 binomial
    standard errors.
    """
    a, b = value_range
    w1 = space.stage_weights(1)
    if w1.min() < a or w1.max() > b:
        raise ValueError(f"stage-1 weights fall outside ({a}, {b})")
    mu0 = space.stage_probs(0)
    exact_mean = float(mu0 @ w1)
    gen = rngmod.stream(seed, 0, rngmod.REPLICATE)
    counts = gen.multinomial(n_particles, mu0, size=n_runs)
    f_bar = counts @ w1 / n_particles
    exceed_rate = float((np.abs(f_bar - exact_mean) > lam).mean())
    bound = min(1.0, 4.0 * math.exp(-n_particles * lam**2 / (2.0 * (b - a) ** 2)))
    se = math.sqrt(bound * (1.0 - bound) / n_runs)
    return ConcentrationReport(
        exceed_rate=exceed_rate,
        bound=bound,
        binomial_se=se,
        ok=bool(exceed_rate <= bound + 3.0 * se),
    )


# ---------------------------------------------------------------------------
# The verify suite: every standing check on the four-state reference space.


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
        for sub, cond in restricted_cell_blocks(space, v):
            worst_st = max(worst_st, np.max(np.abs(cond @ sub - cond)))
    record("detailed-balance-exact", worst_db < 1e-10, f"max flux asym {worst_db:.2e}")
    record("restricted-stationarity", worst_st < 1e-10, f"max residual {worst_st:.2e}")

    # warm mixing times never exceed the spectral-gap bound
    ok, detail = True, []
    for v in range(1, space.n_stages + 1):
        for j, (sub, cond) in enumerate(restricted_cell_blocks(space, v)):
            gap = spectral_gap(sub, stationary=cond)
            tau = warm_mixing_time(sub, cond, boundsmod.WARM_START_M, 0.01)
            bound = mixing_time_bound(gap, 0.01, boundsmod.WARM_START_M)
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
        pair = coupling_map(f, g, gen, size=draws)
        tv = tv_distance(f, g)
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
    n_particles = (
        100_000 if quick else boundsmod.bounds_table(space, 0.5)["n_particles"]
    )
    lam = boundsmod.lambda_of(0.5, space.n_stages)
    f = boundsmod.phi(lam)
    hit = sum(
        all(
            np.all(d.resample_probs <= f**d.stage * space.cell_probs(d.stage) + 1e-15)
            and np.all(
                d.resample_probs >= f**-d.stage * space.cell_probs(d.stage) - 1e-15
            )
            for d in report.diagnostics
        )
        for report in _runs(space, n_particles, 20, n_seeds, seed + 1)
    )
    record(
        "resampling-sandwich",
        hit / n_seeds > 0.75,
        f"{hit}/{n_seeds} runs inside at N={n_particles}",
    )

    # local warmness of the resampled marginals
    taus = [
        max(warm_mixing_times(space, v, boundsmod.WARM_START_M, 1e-3))
        for v in range(1, space.n_stages + 1)
    ]
    warm = local_warmness_report(
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
    idrows = conditional_weight_identity(
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
    conc = stage_weight_concentration(
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
    good = sum(
        abs(report.log_z - exact) <= 0.05
        for report in _runs(space, 10_000, 100, n_z, seed + 5)
    )
    record("normalizing-constant", good >= 0.95 * n_z, f"{good}/{n_z} within 0.05")
    return rows
