"""Closed-form finite-sample bound calculators.

Particle-count and mutation-step requirements, the relative
resampling-error factor phi, and the persistence/overlap quantities that
link the particle bounds to tempering spectral-gap bounds. The
calculators are pure arithmetic; bounds_table reads their inputs
(n_stages, W, Z and the table of cell masses) from one exact reference,
an enumerated DiscreteSpace or a family's closed-form catalog.

Bounds that parameterize discrete resources are returned as floor(x) + 1,
honoring the strict inequalities they come from. Logarithms are natural.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .engine import reduced_problem
from .families import QUIET_LOG_Q, finite_log_q

WARM_START_M = 7

_LOG_GUARD = 1e-300


def strict_ceiling(x: float) -> int:
    """Smallest integer strictly greater than x."""
    return int(math.floor(x)) + 1


def lambda_of(epsilon: float, n_stages: int) -> float:
    """Per-stage relative weight-error budget epsilon / (24 V).

    The boundary epsilon = 1/2 is accepted so the calculators can be
    evaluated at the coarsest advertised tolerance.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
    if n_stages < 1:
        raise ValueError("need at least one stage")
    return epsilon / (24.0 * n_stages)


def phi(lam: float) -> float:
    """The error amplification factor (1 + lambda) / (1 - lambda)."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must be in [0, 1), got {lam}")
    return (1.0 + lam) / (1.0 - lam)


def phi_power_ok(lam: float, v: int, epsilon: float) -> bool:
    """Check phi^v <= phi^{2v} < (1+eps)/(1-eps) for a stage index v.

    Holds for every v <= V whenever lam <= eps/(6V); at lam = 0 the chain
    degenerates to 1 = 1 < (1+eps)/(1-eps).
    """
    if v < 1:
        raise ValueError("stage index must be >= 1")
    f = phi(lam)
    return f**v <= f ** (2 * v) < (1.0 + epsilon) / (1.0 - epsilon)


def particle_bound(
    epsilon: float, n_stages: int, p: int, W: float, Z: float, mu_star: float
) -> int:
    """Particles required for the 3/4-probability accuracy guarantee.

    N must exceed
        (1/eps^2) max{ 3456 (V W Z / mu*)^2 log(64 V p / mu*),
                       p^2 log(1024 p^2) }.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
    if n_stages < 1 or p < 1:
        raise ValueError("need n_stages >= 1 and p >= 1")
    if mu_star <= 0.0 or mu_star > 1.0:
        raise ValueError(f"mu_star must be in (0, 1], got {mu_star}")
    if W <= 0.0 or Z <= 0.0:
        raise ValueError("W and Z must be positive")
    first = (
        3456.0
        * (n_stages * W * Z / mu_star) ** 2
        * math.log(64.0 * n_stages * p / mu_star)
    )
    second = p**2 * math.log(1024.0 * p**2)
    if epsilon**2 == 0.0:  # a subnormal epsilon: N is past float range
        raise OverflowError("epsilon**2 is 0")
    # a Python float past float range is inf, which strict_ceiling rejects
    return strict_ceiling(float(max(first, second)) / epsilon**2)


def mutation_tv_target(mu_star: float, n_particles: int, n_stages: int) -> float:
    """Within-cell mixing accuracy the mutation steps must reach:
    mu* / (16 N V), paired with warm-start constant WARM_START_M."""
    if mu_star <= 0 or n_particles < 1 or n_stages < 1:
        raise ValueError("mu_star, N and V must be positive")
    return mu_star / (16.0 * n_particles * n_stages)


def gap_based_t_bound(
    n_particles: int, n_stages: int, gamma: float, pi_star: float, min_gap: float
) -> int:
    """Mutation steps sufficing when a spectral-gap floor is known:
    t > log(288 N V / (gamma pi*)) / min_gap."""
    if not 0.0 < min_gap <= 1.0:
        raise ValueError(f"min_gap must be in (0, 1], got {min_gap}")
    if n_particles < 1 or n_stages < 1:
        raise ValueError("N and V must be positive")
    if gamma * pi_star < _LOG_GUARD:
        raise ValueError("gamma * pi_star vanishes; bound diverges")
    val = math.log(288.0 * n_particles * n_stages / (gamma * pi_star)) / min_gap
    return max(1, strict_ceiling(val))


def persistence(cell_masses) -> float:
    """How well cell masses survive tempering:
    min_j prod_v min{1, mu_{v-1}(A_j) / mu_v(A_j)}.

    cell_masses is a (V+1, p) table of per-stage cell probabilities.

    Promise: mu* >= gamma * pi*, where mu* = min_{v,j} mu_v(A_j) and
    pi* = min_j mu_V(A_j). For every cell and stage,
    mu_v(A_j) = mu_V(A_j) * prod_{u>v} mu_{u-1}(A_j) / mu_u(A_j), and each
    factor is at least min{1, .}. Equality is reached: for the table
    [[0.3, 0.7], [0.4, 0.6]], gamma = 0.75 and pi* = 0.4, so
    gamma * pi* = 0.3 = mu*. Strict inequality is never promised.
    """
    m = np.asarray(cell_masses, dtype=float)
    if m.ndim != 2 or m.shape[0] < 2:
        raise ValueError("need a (n_stages+1, p) table with at least 2 rows")
    if np.any(m <= 0.0) or np.any(m > 1.0):
        raise ValueError("cell masses must be in (0, 1]")
    if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("each stage's cell masses must sum to 1")
    ratios = np.minimum(1.0, m[:-1] / m[1:])
    return float(ratios.prod(axis=0).min())


def overlap_discrete(space) -> float:
    """Exact overlap of adjacent stages within cells:
    min_{v,j} sum_{A_j} min{mu_v, mu_{v+1}} / max{mu_v(A_j), mu_{v+1}(A_j)}."""
    best = np.inf
    for v in range(space.n_stages):
        pv, pw = space.stage_probs(v), space.stage_probs(v + 1)
        cv, cw = space.cell_probs(v), space.cell_probs(v + 1)
        pointwise = np.minimum(pv, pw)
        for j in range(space.n_cells):
            mask = space.labels == j
            val = pointwise[mask].sum() / max(cv[j], cw[j])
            best = min(best, val)
    return float(best)


def overlap_lower_bound(zw: float, gamma: float, pi_star: float) -> float:
    """min{1, 1/(ZW)} * gamma * pi*, the proven overlap floor."""
    if zw <= 0:
        raise ValueError("ZW must be positive")
    return min(1.0, 1.0 / zw) * gamma * pi_star


def overlap_monte_carlo(family, partition, catalog, n_draws, rng):
    """Self-normalized estimate of the overlap for continuous families.

    Needs exact per-stage samplers and catalog normalizing constants; the
    integrand is averaged under exact mu_v draws. Returns (delta, se) where
    se is the standard error at the minimizing (stage, cell). Raises
    InvalidStateError when log q is not finite on a draw. It draws the
    states ``engine.reduced_problem`` picks, on which log q and the cell
    are defined: (s, r) rows for a lumped Gaussian mixture under its own
    partition, else d-dim rows. Where the centre's ulp exceeds a stage's
    scale, s = m + z sd rounds to m, and (s, r) rows lose the spread along
    1_d (d-dim rows lose every coordinate's).
    """
    family, partition, _ = reduced_problem(family, partition)
    if family.sample_stage is None:
        raise ValueError("family has no exact per-stage sampler")
    best, best_se = np.inf, np.nan
    for v in range(family.n_stages):
        x = family.sample_stage(v, n_draws, rng)
        dbeta = family.betas[v + 1] - family.betas[v]
        with np.errstate(**QUIET_LOG_Q):  # a row sum past float range keeps its sign
            lq = finite_log_q(family.log_q(x))
            cells = partition.classify(x)
        log_ratio = dbeta * lq + catalog.log_z(
            family.betas[v]
        ) - catalog.log_z(family.betas[v + 1])
        r = np.minimum(1.0, np.exp(log_ratio))
        mv = catalog.cell_probability(v)
        mw = catalog.cell_probability(v + 1)
        for j in range(partition.n_cells):
            integrand = np.where(cells == j, r, 0.0)
            denom = max(mv[j], mw[j])
            val = integrand.mean() / denom
            se = integrand.std(ddof=1) / math.sqrt(n_draws) / denom
            if val < best:
                best, best_se = val, se
    return float(best), float(best_se)


def bounds_table(truth, epsilon: float, min_gap: Optional[float] = None) -> dict:
    """Everything the calculators can say about one exact reference, as
    Python numbers. truth (a DiscreteSpace or a family catalog) gives
    n_stages, W = weight_bound(), Z = z_ratio_bound() and the (V+1, p)
    cell_mass_table(), from which p, mu*, gamma and pi* follow."""
    table = truth.cell_mass_table()
    n_stages, W, Z = truth.n_stages, truth.weight_bound(), truth.z_ratio_bound()
    mu_star, pi_star = float(table.min()), float(table[-1].min())
    gamma = persistence(table)
    lam = lambda_of(epsilon, n_stages)
    n = particle_bound(epsilon, n_stages, table.shape[1], W, Z, mu_star)
    out = {
        "lambda": lam,
        "phi": phi(lam),
        "n_particles": n,
        "mutation_tv_target": mutation_tv_target(mu_star, n, n_stages),
        "warm_start_m": WARM_START_M,
        "gamma": gamma,
        "pi_star": pi_star,
        "overlap_floor": float(overlap_lower_bound(W * Z, gamma, pi_star)),
    }
    if min_gap is not None:
        out["t_from_gap"] = gap_based_t_bound(n, n_stages, gamma, pi_star, min_gap)
    return out
