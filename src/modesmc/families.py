"""State spaces, annealed target families, partitions, and closed forms.

States are always handled in batches: a batch of real vectors or spin
vectors is an (n, d) array, a batch of enumerated-space states is an (n,)
integer array of state indices. All densities are unnormalized and live in
log space.

An annealed family bridges an exactly-samplable distribution at inverse
temperature ``betas[0]`` to the target at ``betas[-1] == 1`` via
``mu_v(x) propto q(x)**betas[v]``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln, log1p, log_ndtr, logsumexp, ndtr, ndtri_exp


class InvalidStateError(ValueError):
    """A state outside the family's support (non-finite log density), or a
    stage weight sum past float range."""


# numpy error state to evaluate log q in: an overflow shows as a non-finite
# value, which finite_log_q then reports as one error, not as warnings
QUIET_LOG_Q = {"over": "ignore", "invalid": "ignore"}


def finite_log_q(lq) -> np.ndarray:
    """Base log densities as floats; InvalidStateError unless all are finite.

    The one finiteness rule for log q values: the engine's log weights and
    every density a tempering chain computes pass through it.
    """
    lq = np.asarray(lq, dtype=float)
    if not np.all(np.isfinite(lq)):
        raise InvalidStateError("non-finite base log density in batch")
    return lq


def _truncated_normal_ppf(us: np.ndarray, a: float) -> np.ndarray:
    """Inverse CDF of the standard normal truncated to [a, inf), at us in [0, 1).

    ``scipy.stats.truncnorm.ppf(us, a, inf)`` bit for bit, without importing
    ``scipy.stats``, which took 0.26 s and 46 MiB of every process (2-core
    x86 machine, scipy 1.17). It is scipy's log-space formula, solved in
    the tail that keeps precision:

    - a < 0: Phi(z) = Phi(a) + u (1 - Phi(a)), summed as logs;
    - a >= 0: Phi(-z) = (1 - u) Phi(-a), where scipy's log mass is
      ``log_ndtr(-a)`` for a > 0 and ``log1p(-ndtr(a))`` at a == 0, and its
      ``logsumexp`` with the upper tail's log Phi(-inf) = -inf is exact.

    ``log1p`` of the mass is ``scipy.special.log1p``, as in scipy, which
    differs from numpy's in the last bit on some inputs; u == 0 maps to a.
    """
    with np.errstate(divide="ignore"):  # log(0) at u == 0, replaced below
        if a < 0:
            log_phi = logsumexp(
                [np.full(us.shape, log_ndtr(a)), np.log(us) + log1p(-ndtr(a))],
                axis=0,
            )
            z = ndtri_exp(log_phi)
        else:
            mass = log_ndtr(-a) if a > 0 else log1p(-ndtr(a))
            z = -ndtri_exp(np.log1p(-us) + mass)
    z[us == 0.0] = a
    return z


@dataclass(frozen=True)
class Partition:
    """Total deterministic classifier of states into cells 0..n_cells-1.

    ``reduced``, where set, declares the same cells on the reduced states
    of a ``Lumping``, the one its ``lumping`` names: the engine runs a
    lumped family only with a partition whose reduced form names that
    family's own ``Lumping`` object.
    """

    n_cells: int
    classify: Callable[[np.ndarray], np.ndarray]
    reduced: Optional[Partition] = None
    lumping: Optional[Lumping] = None


@dataclass(frozen=True)
class Lumping:
    """A reduced family onto which a family's stage kernel, restricted or
    not, lumps exactly (``engine`` docstring).

    ``family`` is the reduced family: each of its states stands for a set
    of full states on which the full family's log q is constant, and its
    stage kernel moves between those sets by the law the full kernel does
    (the spin model's levels, an index family, and the Gaussian mixture's
    (s, r) rows, run by ``kernels.RadialWalk``). ``lift(states, rng)``
    draws one full state per reduced one, uniform on its set. It describes
    the full family's ``log_q``, so a copy with another ``log_q`` must
    drop it.
    """

    family: AnnealedFamily
    lift: Callable[[np.ndarray, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class AnnealedFamily:
    """A tempered sequence mu_v propto q**beta_v with an exact mu_0 sampler.

    Parameters
    ----------
    log_q : callable
        Batched unnormalized log density of the base target (beta = 1).
    betas : tuple of float
        Strictly increasing inverse temperatures ending at exactly 1.
        ``betas[0] == 0`` (a uniform initial stage) is allowed only for
        finite state spaces (spin or index kinds).
    dimension : int
        State dimension d (1 for enumerated index spaces).
    kind : str
        "real" | "spin" | "index" | "radial" (the (s, r) rows of a
        ``Lumping``); decides kernel and engine dispatch.
    sample_initial : callable
        (n, rng) -> exact i.i.d. batch from mu_0.
    sample_stage : callable, optional
        (v, n, rng) -> exact i.i.d. batch from mu_v, where available.
    index_log_mass : ndarray, optional
        For index families, the base log masses over the enumerated states.
    index_log_mult : float or ndarray
        For index families, a beta-independent log reference mass: mu_v
        gives state i mass exp(index_log_mult[i] + beta_v index_log_mass[i]).
    index_picks : pair
        For index families, the neighbour walk's proposal probabilities
        (down, up): i -> i - 1 with ``down[i - 1]``, i -> i + 1 with
        ``up[i]`` (scalars or one per edge).
    sigma : float
        Scale hint for random-walk proposal sizing.
    lumping : Lumping, optional
        A reduced family the engine may run in place of this one.
    """

    log_q: Callable[[np.ndarray], np.ndarray]
    betas: tuple
    dimension: int
    kind: str
    sample_initial: Callable[[int, np.random.Generator], np.ndarray]
    name: str = "family"
    sample_stage: Optional[Callable] = None
    index_log_mass: Optional[np.ndarray] = None
    index_log_mult: object = 0.0
    index_picks: tuple = (0.5, 0.5)
    sigma: float = 1.0
    params: dict = field(default_factory=dict)
    lumping: Optional[Lumping] = None

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        object.__setattr__(self, "betas", betas)
        if len(betas) < 1:
            raise ValueError("betas must be nonempty")
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError(f"betas must be strictly increasing: {betas}")
        if betas[-1] != 1.0:
            raise ValueError(f"final beta must be exactly 1, got {betas[-1]}")
        if betas[0] < 0.0:
            raise ValueError(f"beta_0 must be nonnegative, got {betas[0]}")
        if betas[0] == 0.0 and self.kind in ("real", "radial"):
            raise ValueError("beta_0 = 0 is improper on unbounded spaces")
        if self.kind not in ("real", "spin", "index", "radial"):
            raise ValueError(f"unknown state kind {self.kind!r}")

    @property
    def n_stages(self) -> int:
        """V, the number of reweight/mutate stages after initialization."""
        return len(self.betas) - 1

    def log_weight(self, v: int, x: np.ndarray) -> np.ndarray:
        """Log importance weight into stage v: (beta_v - beta_{v-1}) log q(x).

        Raises InvalidStateError when log q is not finite on some state.
        """
        if not 1 <= v <= self.n_stages:
            raise ValueError(f"stage v must be in 1..{self.n_stages}, got {v}")
        with np.errstate(**QUIET_LOG_Q):
            lq = finite_log_q(self.log_q(x))
        return (self.betas[v] - self.betas[v - 1]) * lq


def geometric_schedule(d: int) -> tuple:
    """Multiplicative inverse-temperature ladder from 1/d up to 1.

    Entries (1/d)(1 + 1/d)**v for v = 0..ceil(d log d)-1, capped with a
    final entry of exactly 1. Intermediate entries that already reach 1
    are dropped so the ladder stays strictly increasing.
    """
    if d < 2:
        raise ValueError(f"geometric schedule needs d >= 2, got {d}")
    n_inner = math.ceil(d * math.log(d))
    betas = [(1.0 / d) * (1.0 + 1.0 / d) ** v for v in range(n_inner)]
    betas = [b for b in betas if b < 1.0]
    betas.append(1.0)
    return tuple(betas)


def linear_schedule(d: int) -> tuple:
    """Evenly spaced betas v/d for v = 1..d (the conceptual beta_0 is 0)."""
    if d < 1:
        raise ValueError(f"linear schedule needs d >= 1, got {d}")
    return tuple(v / d for v in range(1, d + 1))


def half_space_partition() -> Partition:
    """Two cells split by the hyperplane sum(x) = 0; ties go to cell 1."""

    def classify(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.where(x.sum(axis=1) > 0.0, 0, 1)

    return Partition(2, classify)


def spin_sign_partition() -> Partition:
    """Cell 0 where the spin sum is >= 0, cell 1 where it is negative."""

    def classify(x):
        x = np.atleast_2d(np.asarray(x))
        return np.where(x.sum(axis=1) >= 0, 0, 1)

    return Partition(n_cells=2, classify=classify)


def index_partition(labels: np.ndarray) -> Partition:
    """Partition of an enumerated space given per-state cell labels."""
    labels = np.asarray(labels, dtype=np.int64)
    n_cells = int(labels.max()) + 1

    def classify(idx):
        return labels[np.asarray(idx, dtype=np.int64)]

    return Partition(n_cells=n_cells, classify=classify)


def gaussian_mixture_target(
    d: int, w: float = 0.5, sigma: float = 1.0, nu: float = 1.0, betas=None
) -> tuple:
    """Truncated two-component Gaussian mixture and its half-space partition.

    The base density is q(x) = w exp(-f1) on H plus (1-w) exp(-f2) on the
    complement, with f_j(x) = ||x -+ nu 1_d||^2 / (2 sigma^2) and
    H = {x : sum(x) > 0}. sup q = max(w, 1-w) <= 1, so stage weights never
    exceed 1. Every tempered stage admits exact sampling through the
    one-dimensional projection onto 1_d, which is how both mu_0 and the
    per-stage samplers are implemented.

    The family carries a ``Lumping`` onto rows (s, r): s = x . u with u =
    1_d / sqrt(d), and r = |x - s u|; the partition declares the same cells
    (s > 0) on them. q depends on x through (s, r) only, the isotropic walk
    x + h g moves (s, r) by a law that depends on (s, r) only
    (``kernels.RadialWalk``), and a cross-cell refusal is a function of s,
    so the walk, restricted or not, lumps exactly onto (s, r) (Dynkin's
    criterion). mu_v has an exact (s, r) sampler. Each step commutes with
    every rotation fixing u, so given its (s, r) a state is uniform on the
    sphere {s u + r w : |w| = 1, w . u = 0}: ``lift`` draws w per row. The
    lifted states' cells differ from s > 0 only where rounding moves a row
    sum within ~1e-16 r of 0.

    The schedule defaults to the multiplicative ladder (d >= 2); pass an
    explicit betas tuple to override it (required for d = 1).
    """
    if not 0.0 < w < 1.0:
        raise ValueError(f"mixture weight must be in (0,1), got {w}")
    two_s2 = 2.0 * sigma * sigma  # a float product, which overflows to inf
    if not (sigma > 0.0 and 1.0 / sys.float_info.max < two_s2 < math.inf):
        raise ValueError(f"sigma must be positive with 1/(2 sigma**2) finite: {sigma}")
    d = int(d)
    if not math.isfinite(nu * math.sqrt(d)):  # the centres' distance from 0
        raise ValueError(f"nu sqrt(d) must be finite, got nu = {nu}")
    betas = geometric_schedule(d) if betas is None else tuple(betas)
    center = nu * np.ones(d)
    inv2s2 = 1.0 / (2.0 * sigma**2)
    logw1, logw2 = math.log(w), math.log(1.0 - w)

    def log_q(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        in_h = x.sum(axis=1) > 0.0
        # one quadratic form about each row's own centre: x - (-c) is x + c
        # exactly; z keeps x's memory layout, so its sum reduces the same
        # rows the same way as ((x -+ center) ** 2).sum(axis=1)
        z = np.empty_like(x)
        np.multiply(np.where(in_h, 1.0, -1.0)[:, None], center, out=z)
        np.subtract(x, z, out=z)
        f = np.multiply(z, z, out=z).sum(axis=1) * inv2s2
        return np.where(in_h, logw1 - f, logw2 - f)

    u = np.ones(d) / math.sqrt(d)
    m = nu * math.sqrt(d)

    def projection(v, n, rng):
        """s = x . u of n exact mu_v draws before their mirror, the mirror
        mask and the stage's scale."""
        beta = betas[v]
        sd = sigma / math.sqrt(beta)
        # tempered component masses differ only through w**beta vs (1-w)**beta
        p_h = w**beta / (w**beta + (1.0 - w) ** beta)
        mirror = rng.random(n) >= p_h
        us = rng.random(n)
        s = _truncated_normal_ppf(us, (0.0 - m) / sd) * sd + m
        return s, mirror, sd

    def sample_stage(v, n, rng):
        s, mirror, sd = projection(v, n, rng)
        g = rng.standard_normal((n, d)) * sd
        x = s[:, None] * u + (g - np.outer(g @ u, u))
        x[mirror] = -x[mirror]
        return x

    def log_q_rows(z):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        s, r = z[:, 0], z[:, 1]
        a = np.abs(s) - m  # (s -+ m)^2 is (|s| - m)^2 on either side
        f = (a * a + r * r) * inv2s2
        return np.where(s > 0.0, logw1, logw2) - f

    def sample_rows(v, n, rng):
        # the part of x orthogonal to u is N(0, sd^2) on d - 1 coordinates
        s, mirror, sd = projection(v, n, rng)
        s[mirror] = -s[mirror]
        r = sd * np.sqrt(rng.chisquare(d - 1, n)) if d > 1 else np.zeros(n)
        return np.column_stack([s, r])

    def lift(z, rng):
        x = z[:, :1] * u
        if d > 1:  # r times a uniform unit vector orthogonal to u
            g = rng.standard_normal((z.shape[0], d))
            for _ in range(2):  # the second pass removes the first's rounding
                g -= g.mean(axis=1, keepdims=True)
            g *= (z[:, 1] / np.linalg.norm(g, axis=1))[:, None]
            x += g
        return x

    reduced = AnnealedFamily(
        log_q=log_q_rows,
        betas=betas,
        dimension=d,
        kind="radial",
        sample_initial=lambda n, rng: sample_rows(0, n, rng),
        sample_stage=sample_rows,
        name="gaussian-mixture-rows",
        sigma=sigma,
    )

    def classify_rows(z):
        return np.where(np.atleast_2d(z)[:, 0] > 0.0, 0, 1)

    lumping = Lumping(reduced, lift)
    family = AnnealedFamily(
        log_q=log_q,
        betas=betas,
        dimension=d,
        kind="real",
        sample_initial=lambda n, rng: sample_stage(0, n, rng),
        sample_stage=sample_stage,
        name="gaussian-mixture",
        sigma=sigma,
        params={"d": d, "w": w, "sigma": sigma, "nu": nu},
        lumping=lumping,
    )
    rows = Partition(2, classify_rows, lumping=lumping)
    return family, replace(half_space_partition(), reduced=rows)


def ising_target(d: int, alpha: float) -> tuple:
    """Mean-field spin model exp{alpha/(2d) (sum x_i)^2} and sign partition.

    d must be odd so the spin sum never lands on the cell boundary. The
    schedule is linear with a uniform (beta = 0) initial stage sampled
    exactly.

    The family carries a ``Lumping`` onto its d + 1 magnetisation levels k
    (number of +1 spins), an index family, and the partition the same
    cells on them. Single-site flip moves the level of any configuration
    up with probability (d - k)/d min(1, e^D) and down with k/d min(1,
    e^-D), and refuses a cross-cell move by k alone, so the chain,
    restricted or not, lumps onto k (strong lumpability; Kemeny and Snell,
    Finite Markov Chains, 6.3). mu_v gives level k mass C(d, k) q(k)^beta_v,
    so the levels carry log C(d, k) as reference mass and k/d, (d - k)/d as
    picks. Each step commutes with a common permutation of the sites, so
    given its level a configuration is uniform on the level set: ``lift``
    draws one site permutation a row.
    """
    d = int(d)
    if d % 2 == 0:
        raise ValueError(f"d must be odd for the sign partition, got {d}")
    betas = (0.0,) + linear_schedule(d)
    coeff = alpha / (2.0 * d)

    def log_q(x):
        x = np.atleast_2d(np.asarray(x))
        s = x.sum(axis=1).astype(float)
        return coeff * s * s

    def sample_initial(n, rng):
        return (rng.integers(0, 2, size=(n, d)) * 2 - 1).astype(np.int8)

    def lift(k, rng):  # k leading +1s, then one site permutation a row
        x = np.where(np.arange(d) < k[:, None], 1, -1).astype(np.int8)
        return rng.permuted(x, axis=1, out=x)

    k = np.arange(d + 1)
    s = (2 * k - d).astype(float)  # each level's spin sum, as log_q sees it
    with np.errstate(**QUIET_LOG_Q):  # past float range fails when run
        energy = coeff * s * s
    pick = np.arange(1, d + 1) / d
    log_mult = gammaln(d + 1) - gammaln(k + 1) - gammaln(d - k + 1)  # log C(d, k)
    levels = index_family(energy, betas, log_mult, (pick, pick[::-1]))
    lumping = Lumping(levels, lift)
    family = AnnealedFamily(
        log_q=log_q,
        betas=betas,
        dimension=d,
        kind="spin",
        sample_initial=sample_initial,
        name="mean-field-ising",
        params={"d": d, "alpha": alpha},
        lumping=lumping,
    )
    reduced = replace(index_partition(np.where(s >= 0, 0, 1)), lumping=lumping)
    return family, replace(spin_sign_partition(), reduced=reduced)


def index_family(base_log_mass: np.ndarray, betas, log_mult=0.0,
                 picks=(0.5, 0.5)) -> AnnealedFamily:
    """Tempered family over an enumerated space; states are indices.

    ``log_mult`` and ``picks`` are the family's ``index_log_mult`` and
    ``index_picks``. A non-finite base log mass fails when the family is
    run (``finite_log_q``).
    """
    base = np.asarray(base_log_mass, dtype=float)
    betas = tuple(betas)
    b0 = betas[0]

    def log_q(idx):
        return base[np.asarray(idx, dtype=np.int64)]

    def sample_initial(n, rng):
        lm = log_mult + b0 * base
        p = np.exp(lm - lm.max())
        p /= p.sum()
        return rng.choice(base.size, size=n, p=p)

    return AnnealedFamily(
        log_q=log_q,
        betas=betas,
        dimension=1,
        kind="index",
        sample_initial=sample_initial,
        name="enumerated",
        index_log_mass=base,
        index_log_mult=log_mult,
        index_picks=picks,
    )


# ---------------------------------------------------------------------------
# Closed-form catalogs for the two worked families. Each answers n_stages,
# cell_mass_table(), weight_bound() (W) and z_ratio_bound() (Z) as a
# DiscreteSpace does: all that bounds.bounds_table reads.


@dataclass(frozen=True)
class GaussianMixtureCatalog:
    """Exact per-stage quantities for the truncated Gaussian mixture.

    All formulas come from the one-dimensional projection onto 1_d: each
    tempered component is a Gaussian with scale sigma/sqrt(beta) whose own
    half-space holds mass Phi(nu sqrt(d beta)/sigma). Note the mixture
    weights temper along with the exponents (w**beta), which is exact for
    mu_v propto q**beta_v; for w = 1/2 this coincides with keeping w fixed.
    """

    d: int
    w: float
    sigma: float
    nu: float
    betas: tuple

    @property
    def n_stages(self):
        return len(self.betas) - 1

    def cell_probability(self, v: int) -> np.ndarray:
        beta = self.betas[v]
        a = self.w**beta
        b = (1.0 - self.w) ** beta
        return np.array([a / (a + b), b / (a + b)])

    def log_z(self, beta: float) -> float:
        """log integral of q**beta over R^d; OverflowError if not finite."""
        if beta <= 0:
            raise ValueError("beta must be positive")
        mix = math.log(self.w**beta + (1.0 - self.w) ** beta)
        own = float(log_ndtr(self.nu * math.sqrt(self.d * beta) / self.sigma))
        out = mix + own + 0.5 * self.d * math.log(2.0 * math.pi * self.sigma**2 / beta)
        if not math.isfinite(out):
            raise OverflowError(f"log z at beta = {beta!r} is {out!r}")
        return out

    def z_ratio(self, v: int) -> float:
        """z_{v-1} / z_v along the schedule."""
        if not 1 <= v <= self.n_stages:
            raise ValueError(f"stage v must be in 1..{self.n_stages}")
        return math.exp(self.log_z(self.betas[v - 1]) - self.log_z(self.betas[v]))

    def cell_mass_table(self) -> np.ndarray:
        return np.stack([self.cell_probability(v) for v in range(len(self.betas))])

    def weight_bound(self) -> float:
        """W: sup q <= max(w, 1-w) < 1 bounds every stage weight by 1."""
        return 1.0

    def z_ratio_bound(self) -> float:
        """Z: the largest z_{v-1}/z_v over stages."""
        return max(self.z_ratio(v) for v in range(1, self.n_stages + 1))


@dataclass(frozen=True)
class IsingCatalog:
    """Exact symmetry-driven quantities for the mean-field spin model."""

    d: int
    alpha: float
    betas: tuple

    @property
    def n_stages(self):
        return len(self.betas) - 1

    def cell_probability(self, v: int) -> np.ndarray:
        # spin-flip symmetry with odd d: both sign cells carry mass 1/2
        return np.array([0.5, 0.5])

    def cell_mass_table(self) -> np.ndarray:
        return np.full((len(self.betas), 2), 0.5)

    def weight_bound(self) -> float:
        # only the product of the density-ratio bounds is known: exp(alpha/2)
        return math.exp(abs(self.alpha) / 2.0)

    def z_ratio_bound(self) -> float:
        return 1.0


def analytic_catalog(family: AnnealedFamily):
    """Catalog of closed forms for a supported family."""
    if family.name == "gaussian-mixture":
        p = family.params
        return GaussianMixtureCatalog(
            d=p["d"], w=p["w"], sigma=p["sigma"], nu=p["nu"], betas=family.betas
        )
    if family.name == "mean-field-ising":
        p = family.params
        return IsingCatalog(d=p["d"], alpha=p["alpha"], betas=family.betas)
    raise ValueError(f"no analytic catalog for family {family.name!r}")
