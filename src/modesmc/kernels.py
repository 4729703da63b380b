"""Stage-invariant Markov kernels, cell restriction, and spectral tooling.

Each kernel targets one annealed stage (its log density already includes
beta_v). The three particle kernels share one Metropolis driver and
supply only a state dtype, a move block and a proposal. A proposal that
would leave the state space (the neighbour walk's moves off either end of
its path) returns the current state, so accepting it is a stay.

The driver's stream layout: particles fall into fixed blocks of
``_BLOCK`` = 1024 rows, block b being rows [1024 b, min(N, 1024 (b + 1))).
A call first draws one (n_blocks, 2) uint64 array of keys from the
caller's generator (the stage's counter-based Philox MUTATE stream,
``rng``), one key per block; each block then gets its own SFC64
generator, seeded through numpy's ``SeedSequence`` from its two-word key,
and at each step draws from it its moves and then its acceptance
uniforms. A particle's noise is a function of (stream, block, step) only,
so output is identical however many workers split the blocks, and
drawing the keys advances the caller's generator, so two calls on one
generator never reuse noise. Counters matter for the per-(seed, stage,
phase) streams; a block generator is built once per call and only its
speed matters. On a 1024 x 5 block (numpy 2.4, 2-core VM)
``standard_normal`` took 45.8 us on Philox, 37.3 us on PCG64 and 33.3 us
on SFC64, and 1024 uniforms 3.1, 1.8 and 1.9 us; a vectorised Box-Muller
was slower than the ziggurat on both Philox and SFC64 (96 and 86 us).
A call holds the N states with their log densities, one step's N
proposals and moves, and each worker's block-sized draws:
O(N + workers 1024) rows of d numbers whatever t is, where pre-drawing
every step took O(t N) rows. Workers take contiguous ranges of blocks and
draw their noise in parallel (numpy's fills release the GIL). Blocks of
4096 rows ran as fast at one worker, but split N = 5000 as 4096 + 904
rows, so two workers gained less: one d = 5 Gaussian run with t = 100 and
9 stages took 0.32-0.41 s at two workers with 1024-row blocks, 0.38-0.47 s
with 4096-row blocks, and 0.41-0.47 s with the whole stage's noise
pre-drawn (medians of 11 runs, Philox blocks, 2-core VM).

Restriction follows the refuse-leaving-moves construction: a full base
step is simulated and the result is discarded (the particle stays put)
whenever it would land outside the particle's current cell. That
reproduces the restricted kernel exactly for any base kernel given as a
transition law, and makes the restricted chain invariant for the
within-cell conditional.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .families import QUIET_LOG_Q, AnnealedFamily, Partition, finite_log_q
from .families import spin_levels


def default_step_variance(sigma: float, beta: float, d: int) -> float:
    """Classic random-walk scaling: 2.38^2 sigma^2 / (beta d)."""
    return 2.38**2 * sigma**2 / (beta * d)


_BLOCK = 1024  # rows per noise block; see the module docstring


def _chunks(n: int, workers: int):
    k = max(1, min(workers, n))
    edges = np.linspace(0, n, k + 1).astype(int)
    return [range(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _run_chunked(task, n, workers):
    chunks = _chunks(n, workers)
    if len(chunks) == 1:
        task(chunks[0])
        return
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        list(pool.map(task, chunks))


def _birth_death_band(log_mass, down_pick, up_pick, labels=None):
    """Move probabilities ``(down, up)`` of a Metropolized birth-death chain:
    i -> i -+ 1 proposed with probability ``down_pick[i - 1]``/``up_pick[i]``
    (scalars or per edge), accepted with min(1, mass ratio). Moves off the
    path or across a change of ``labels`` are refused (stays)."""
    step = np.diff(log_mass)
    down = np.zeros(log_mass.size)
    up = np.zeros(log_mass.size)
    up[:-1] = up_pick * np.exp(np.minimum(0.0, step))
    down[1:] = down_pick * np.exp(np.minimum(0.0, -step))
    if labels is not None:
        edge = labels[1:] != labels[:-1]
        up[:-1][edge] = 0.0
        down[1:][edge] = 0.0
    return down, up


def _birth_death_counts(counts, down, up, t, rng):
    """Advance per-state counts t steps of the birth-death band (down, up).

    Given the counts, particles move independently, so the c particles at
    state i split exactly, by the multinomial's conditionals, as L ~ Bin(c,
    down[i]) left, then R ~ Bin(c - L, up[i] / (1 - down[i])) right: two
    calls per step, vectorised over all states. That conditional is
    clipped to [0, 1] (down + up = 1 can round it to 1 + 2**-52) and is 0
    where down == 1.
    """
    counts = np.asarray(counts, dtype=np.int64).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        up_rest = np.clip(up / (1.0 - down), 0.0, 1.0)
    up_rest[down == 1.0] = 0.0
    for _ in range(t):
        left = rng.binomial(counts, down)
        right = rng.binomial(counts - left, up_rest)
        counts -= left + right
        counts[:-1] += left[1:]
        counts[1:] += right[:-1]
    return counts


class _Metropolis:
    """The Metropolis driver shared by the particle kernels.

    A kernel supplies ``dtype`` (of its state array, None to keep the
    input's), ``log_density(x)``, ``draw_moves(rng, t, n)`` returning a
    block indexed ``[step, particle]`` and ``propose(x, move)``; the driver
    owns the stream layout, the accept/refuse loop and the cell check.

    ``mutate`` draws one key per 1024-row block from ``rng``, seeds an
    SFC64 generator per block with it, then at each step draws per block,
    from that block's generator,
    ``draw_moves(gen, 1, rows)`` and then ``rows`` acceptance uniforms, and
    runs the step once over each worker's contiguous range of blocks. Its
    memory is O(N + workers 1024) rows whatever t is (module docstring).
    A proposal whose log density is not finite raises InvalidStateError.
    """

    dtype = None

    def mutate(self, states, t, rng, cells=None, partition=None, workers=1):
        x = np.array(states, dtype=self.dtype, copy=True)
        if t == 0:
            return x
        n = x.shape[0]
        n_blocks = -(-n // _BLOCK)
        keys = rng.integers(0, 2**64, size=(n_blocks, 2), dtype=np.uint64)
        with np.errstate(**QUIET_LOG_Q):  # states whose log q was checked finite
            logp = np.asarray(self.log_density(x), dtype=float)

        def task(blocks):
            sl = slice(blocks.start * _BLOCK, min(n, blocks.stop * _BLOCK))
            xs, lp = x[sl], logp[sl]
            cs = cells[sl] if cells is not None else None
            gens = [np.random.Generator(np.random.SFC64(keys[b])) for b in blocks]
            m = sl.stop - sl.start
            rows = [slice(a, min(a + _BLOCK, m)) for a in range(0, m, _BLOCK)]
            moves, logu = None, np.empty(m)  # one step's noise, reused
            # a worker thread does not inherit the caller's numpy error state
            with np.errstate(**QUIET_LOG_Q):
                for _ in range(t):
                    parts = []
                    for gen, r in zip(gens, rows):
                        parts.append(self.draw_moves(gen, 1, r.stop - r.start)[0])
                        gen.random(out=logu[r])
                    moves = np.concatenate(parts, out=moves)
                    np.log(logu, out=logu)
                    y = self.propose(xs, moves)
                    lpy = finite_log_q(self.log_density(y))
                    acc = logu < (lpy - lp)
                    if partition is not None:
                        acc &= partition.classify(y) == cs
                    xs[acc] = y[acc]
                    lp[acc] = lpy[acc]
            x[sl], logp[sl] = xs, lp

        _run_chunked(task, n_blocks, workers)
        return x

    def step(self, states, rng, cells=None, partition=None):
        return self.mutate(states, 1, rng, cells=cells, partition=partition)


class RandomWalkMetropolis(_Metropolis):
    """Gaussian random-walk Metropolis on real vectors.

    proposal_std is the per-coordinate standard deviation of the proposal
    increment; the default comes from ``default_step_variance``.
    """

    dtype = float

    def __init__(self, log_density: Callable, proposal_std: float, dim: int):
        if proposal_std <= 0:
            raise ValueError("proposal_std must be positive")
        self.log_density = log_density
        self.proposal_std = float(proposal_std)
        self.dim = int(dim)

    def draw_moves(self, rng, t, n):
        return self.proposal_std * rng.standard_normal((t, n, self.dim))

    def propose(self, x, move):
        return x + move


class SingleSiteFlip(_Metropolis):
    """Metropolis kernel flipping one uniformly chosen spin per step."""

    def __init__(self, log_density: Callable, dim: int):
        self.log_density = log_density
        self.dim = int(dim)

    def draw_moves(self, rng, t, n):
        return rng.integers(0, self.dim, size=(t, n))

    def propose(self, x, move):
        y = x.copy()
        y[np.arange(x.shape[0]), move] *= -1
        return y

    def mutate_counts(self, counts, t, rng, partition=None):
        """Advance counts over the levels k = 0..d (number of +1 spins) t
        steps: law-equivalent to mutate when the log density and partition
        are functions of the spin sum, as the chain then lumps onto k
        (engine docstring), with ``up[k] = (d - k)/d min(1, e^D)`` and
        ``down[k] = k/d min(1, e^-D)``. Level log densities must be finite.
        """
        levels = spin_levels(self.dim)
        pick = np.arange(1, self.dim + 1) / self.dim
        with np.errstate(**QUIET_LOG_Q):
            lp = finite_log_q(self.log_density(levels))
            labels = None if partition is None else partition.classify(levels)
            down, up = _birth_death_band(lp, pick, pick[::-1], labels)
        return _birth_death_counts(counts, down, up, t, rng)


class DiscreteNeighborWalk(_Metropolis):
    """Metropolized nearest-neighbor walk on an enumerated path of states."""

    dtype = np.int64

    def __init__(self, log_mass: np.ndarray):
        self.log_mass = np.asarray(log_mass, dtype=float)
        if self.log_mass.ndim != 1:
            raise ValueError("log_mass must be a vector over states")

    @property
    def n_states(self):
        return self.log_mass.size

    def log_density(self, x):
        return self.log_mass[x]

    def draw_moves(self, rng, t, n):
        return rng.integers(0, 2, size=(t, n)) * 2 - 1

    def propose(self, x, move):
        y = x + move
        return np.where((y >= 0) & (y < self.n_states), y, x)

    def band(self, partition=None):
        """Per-state move probabilities ``(down, up)`` to i-1 and i+1: a
        neighbour proposed with probability 1/2 (``_birth_death_band``)."""
        labels = None if partition is None else partition.classify(
            np.arange(self.n_states)
        )
        return _birth_death_band(self.log_mass, 0.5, 0.5, labels)

    def transition_matrix(self) -> np.ndarray:
        down, up = self.band()
        P = np.diag(1.0 - (down + up))
        i = np.arange(self.n_states - 1)
        P[i + 1, i] = down[1:]
        P[i, i + 1] = up[:-1]
        return P

    def mutate_counts(self, counts, t, rng, partition=None):
        """Advance per-state counts t steps (law-equivalent to mutate)."""
        return _birth_death_counts(counts, *self.band(partition), t, rng)


@dataclass(frozen=True)
class RestrictedKernel:
    """The restricted kernel's description for ``transition_matrix``: moves
    of ``base`` that leave the current cell of ``partition`` are refused.
    To simulate it, pass ``cells`` and ``partition`` to ``base.mutate``."""

    base: object
    partition: Partition


def stage_kernel(family: AnnealedFamily, v: int, step_size: Optional[float] = None):
    """The default base kernel targeting stage v of a family.

    v = 0 is allowed (tempering baselines keep a chain at the initial
    stage); the engine itself only mutates at v >= 1.
    """
    if not 0 <= v <= family.n_stages:
        raise ValueError(f"stage v must be in 0..{family.n_stages}")
    beta = family.betas[v]
    if family.kind == "real":
        std = (
            float(step_size)
            if step_size is not None
            else math.sqrt(default_step_variance(family.sigma, beta, family.dimension))
        )
        return RandomWalkMetropolis(
            lambda x: beta * family.log_q(x), std, family.dimension
        )
    if family.kind == "spin":
        return SingleSiteFlip(lambda x: beta * family.log_q(x), family.dimension)
    if family.kind == "index":
        return DiscreteNeighborWalk(beta * family.index_log_mass)
    raise ValueError(f"no default kernel for state kind {family.kind!r}")


# ---------------------------------------------------------------------------
# Exact transition matrices (small enumerated spaces only).

MAX_MATRIX_STATES = 10_000


def restrict_transition_matrix(P: np.ndarray, labels) -> np.ndarray:
    """Apply the cell restriction to an exact transition matrix.

    Cross-cell mass in each row is moved onto the diagonal; the result is
    block diagonal over cells and row stochastic.
    """
    labels = np.asarray(labels)
    same = labels[:, None] == labels[None, :]
    R = np.where(same, P, 0.0)
    np.fill_diagonal(R, np.diag(R) + (P * ~same).sum(axis=1))
    return R


def cell_submatrix(P: np.ndarray, labels, j: int) -> np.ndarray:
    """The rows/columns of cell j from a (restricted) matrix."""
    idx = np.flatnonzero(np.asarray(labels) == j)
    return P[np.ix_(idx, idx)]


def spin_flip_transition_matrix(log_density_vector: np.ndarray, d: int) -> np.ndarray:
    """Exact matrix of the single-site flip kernel on enumerated spins.

    States are ordered as in ``discrete.enumerate_spins``: flipping site k
    toggles bit k of the state index.
    """
    lm = np.asarray(log_density_vector, dtype=float)
    m = lm.size
    if m != 2**d:
        raise ValueError("log density vector must cover all 2**d spin states")
    P = np.zeros((m, m))
    idx = np.arange(m)
    for k in range(d):
        j = idx ^ (1 << k)
        P[idx, j] = np.minimum(1.0, np.exp(lm[j] - lm[idx])) / d
    P[idx, idx] = 1.0 - P.sum(axis=1)
    return P


def transition_matrix(kernel) -> np.ndarray:
    """Exact row-stochastic matrix of a discrete-capable kernel."""
    if isinstance(kernel, RestrictedKernel):
        P = transition_matrix(kernel.base)
        labels = kernel.partition.classify(np.arange(P.shape[0]))
        return restrict_transition_matrix(P, labels)
    if isinstance(kernel, DiscreteNeighborWalk):
        if kernel.n_states > MAX_MATRIX_STATES:
            raise ValueError(f"space too large: {kernel.n_states}")
        return kernel.transition_matrix()
    if isinstance(kernel, SingleSiteFlip):
        if 2**kernel.dim > MAX_MATRIX_STATES:
            raise ValueError(f"spin space too large: 2**{kernel.dim}")
        from .discrete import enumerate_spins

        lm = np.asarray(kernel.log_density(enumerate_spins(kernel.dim)), dtype=float)
        return spin_flip_transition_matrix(lm, kernel.dim)
    raise TypeError(f"no exact transition matrix for {type(kernel).__name__}")


# ---------------------------------------------------------------------------
# Spectral quantities of reversible chains.


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix via a linear solve."""
    P = np.asarray(P, dtype=float)
    m = P.shape[0]
    A = np.vstack([P.T - np.eye(m), np.ones(m)])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def spectral_gap(P: np.ndarray, stationary: Optional[np.ndarray] = None) -> float:
    """Absolute spectral gap 1 - max(|lambda_2|, |lambda_min|).

    The chain must be reversible; the spectrum is taken from the
    symmetrized similarity transform D^{1/2} P D^{-1/2}.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(P < -1e-12):
        raise ValueError("transition matrix has negative entries")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("rows must sum to 1")
    if P.shape[0] == 1:
        return 1.0
    pi = stationary_distribution(P) if stationary is None else np.asarray(stationary)
    if np.any(pi <= 0):
        raise ValueError("stationary vector must be strictly positive")
    flux = pi[:, None] * P
    if np.max(np.abs(flux - flux.T)) > 1e-8:
        raise ValueError("kernel is not reversible for its stationary vector")
    root = np.sqrt(pi)
    S = (root[:, None] / root[None, :]) * P
    eigs = np.linalg.eigvalsh((S + S.T) / 2.0)
    if abs(eigs[-1] - 1.0) > 1e-10:
        raise ValueError("leading eigenvalue is not 1; input is not stochastic")
    # a repeated unit eigenvalue (reducible chain, identity) has zero gap
    return float(max(0.0, 1.0 - max(abs(eigs[-2]), abs(eigs[0]))))


def mixing_time_bound(gap: float, epsilon: float, M: float) -> int:
    """Warm-start mixing-time bound ceil[(log(2/eps) + log(M-1)) / gap].

    Clamps to 1 when the logarithms go nonpositive (an already-stationary
    start). gap = 0 is an error: the bound is infinite.
    """
    if not 0.0 < gap <= 1.0:
        raise ValueError(f"gap must be in (0, 1], got {gap}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if M < 1.0:
        raise ValueError(f"warm-start constant must be >= 1, got {M}")
    log_m = math.log(M - 1.0) if M > 1.0 else -math.inf
    val = (math.log(2.0 / epsilon) + log_m) / gap
    if not math.isfinite(val):
        return 1
    return max(1, math.ceil(val))
