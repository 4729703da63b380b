"""Fully enumerated state spaces: the oracle substrate for all checks.

A DiscreteSpace stores the exact per-stage log masses of every state, so
cell probabilities, normalizing constants, within-cell conditionals, stage
weights and density-ratio bounds can all be computed by summation and
compared against sampler output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .families import AnnealedFamily, Partition, index_family, index_partition

MAX_STATES = 10_000


@dataclass(frozen=True)
class DiscreteSpace:
    """Enumerated states with exact per-stage log masses and cell labels."""

    log_masses: np.ndarray  # (n_stages + 1, n_states)
    labels: np.ndarray  # (n_states,)
    betas: Optional[tuple] = None  # set when the stages are a tempered ladder
    base_log_mass: Optional[np.ndarray] = None

    def __post_init__(self):
        lm = np.asarray(self.log_masses, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "log_masses", lm)
        object.__setattr__(self, "labels", labels)
        if lm.ndim != 2:
            raise ValueError("log_masses must be (n_stages+1, n_states)")
        if lm.shape[1] != labels.size:
            raise ValueError("labels size must match the state count")
        if lm.shape[1] > MAX_STATES:
            raise ValueError(f"too many states: {lm.shape[1]} > {MAX_STATES}")
        if not np.all(np.isfinite(lm)):
            raise ValueError("log masses must be finite")
        p = int(labels.max()) + 1
        for j in range(p):
            if not np.any(labels == j):
                raise ValueError(f"cell {j} is empty")

    @classmethod
    def tempered(cls, base_log_mass, betas, labels) -> "DiscreteSpace":
        base = np.asarray(base_log_mass, dtype=float)
        betas = tuple(float(b) for b in betas)
        lm = np.outer(betas, base)
        return cls(log_masses=lm, labels=labels, betas=betas, base_log_mass=base)

    @property
    def n_states(self) -> int:
        return self.log_masses.shape[1]

    @property
    def n_stages(self) -> int:
        return self.log_masses.shape[0] - 1

    @property
    def n_cells(self) -> int:
        return int(self.labels.max()) + 1

    def log_z(self, v: int) -> float:
        return float(logsumexp(self.log_masses[v]))

    def stage_probs(self, v: int) -> np.ndarray:
        lm = self.log_masses[v]
        p = np.exp(lm - lm.max())
        return p / p.sum()

    def cell_probs(self, v: int) -> np.ndarray:
        probs = self.stage_probs(v)
        return np.bincount(self.labels, weights=probs, minlength=self.n_cells)

    def conditional(self, v: int, j: int) -> np.ndarray:
        """Stage-v distribution conditioned on cell j, over cell-j states."""
        mask = self.labels == j
        p = self.stage_probs(v)[mask]
        return p / p.sum()

    def cell_states(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.labels == j)

    def stage_weights(self, v: int) -> np.ndarray:
        """Importance weights into stage v for every state."""
        if not 1 <= v <= self.n_stages:
            raise ValueError(f"stage v must be in 1..{self.n_stages}")
        return np.exp(self.log_masses[v] - self.log_masses[v - 1])

    def weight_bound(self) -> float:
        """W: the largest stage weight over all stages and states."""
        return max(self.stage_weights(v).max() for v in range(1, self.n_stages + 1))

    def z_ratio_bound(self) -> float:
        """Z: the largest z_{v-1}/z_v over stages."""
        return max(
            np.exp(self.log_z(v - 1) - self.log_z(v))
            for v in range(1, self.n_stages + 1)
        )

    def cell_mass_table(self) -> np.ndarray:
        return np.stack([self.cell_probs(v) for v in range(self.n_stages + 1)])

    def mu_star(self) -> float:
        return float(self.cell_mass_table().min())

    def pi_star(self) -> float:
        return float(self.cell_probs(self.n_stages).min())

    def to_family(self) -> AnnealedFamily:
        if self.betas is None or self.base_log_mass is None:
            raise ValueError("only tempered spaces convert to annealed families")
        return index_family(self.base_log_mass, self.betas)

    def to_partition(self) -> Partition:
        return index_partition(self.labels)


def reference_four_state() -> DiscreteSpace:
    """The standing small instance used throughout the verification suite.

    Four states on a path with target masses (0.4, 0.1, 0.2, 0.3), cells
    {0,1} and {2,3}, and a four-step tempering ladder.
    """
    pi = np.array([0.4, 0.1, 0.2, 0.3])
    return DiscreteSpace.tempered(
        base_log_mass=np.log(pi),
        betas=(0.25, 0.5, 0.75, 1.0),
        labels=np.array([0, 0, 1, 1]),
    )


def random_tempered_space(rng: np.random.Generator) -> DiscreteSpace:
    """A random two-cell tempered space for randomized property checks:
    4 to 12 states, 2 to 5 stages, base log masses of scale 0.5 to 2."""
    n = int(rng.integers(4, 13))
    scale = rng.uniform(0.5, 2.0)
    base = rng.normal(0.0, scale, size=n)
    n_stages = int(rng.integers(2, 6))
    b0 = rng.uniform(0.05, 0.5)
    gaps = rng.uniform(0.1, 1.0, size=n_stages)
    cum = np.cumsum(gaps) / gaps.sum()
    inner = b0 + (1.0 - b0) * cum[:-1]  # strictly inside (b0, 1)
    betas = (b0, *inner, 1.0)
    split = int(rng.integers(1, n))  # both cells nonempty
    labels = (np.arange(n) >= split).astype(np.int64)
    return DiscreteSpace.tempered(base_log_mass=base, betas=betas, labels=labels)


def enumerate_spins(d: int) -> np.ndarray:
    """All 2**d spin vectors, in binary order, entries in {-1, +1}."""
    if d > 16:
        raise ValueError("spin enumeration capped at d = 16")
    idx = np.arange(2**d, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(d)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def ising_space(d: int, alpha: float, betas) -> DiscreteSpace:
    """Enumerated mean-field spin model (small d), cells by sign of the sum."""
    spins = enumerate_spins(d)
    s = spins.sum(axis=1).astype(float)
    base = alpha / (2.0 * d) * s * s
    labels = (s < 0).astype(np.int64)
    return DiscreteSpace.tempered(base_log_mass=base, betas=tuple(betas), labels=labels)
