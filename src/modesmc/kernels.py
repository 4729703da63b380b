"""Stage-invariant Markov kernels, cell restriction, and spectral tooling.

Each kernel targets one annealed stage (its log density already includes
beta_v). The four particle kernels share one Metropolis driver and
supply only a state dtype, a move buffer, a fill of it and a proposal. A
proposal that would leave the state space (the neighbour walk's moves off
either end of its path) returns the current state, so accepting it is a
stay. ``RadialWalk`` is ``RandomWalkMetropolis`` on the Gaussian mixture's
(s, r) rows (``families.gaussian_mixture_target``): with the same step size
h it draws two normals and one Gamma variate a particle and step whatever d
is, where the d-dim walk draws d normals and evaluates log q and the cells
on d columns.

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
Moves, uniforms and proposals are filled in place into step buffers
(``standard_normal(out=...)`` draws the same numbers as an allocating
call), and accepted proposals are copied into the state rows with
``np.copyto(..., where=)``. A call holds the N states with their log
densities and one step's moves, uniforms and proposals: O(N) rows whatever
t is, where pre-drawing every step took O(t N) rows. Workers take
contiguous ranges of blocks and draw their noise in parallel (numpy's
fills release the GIL), but only for a kernel whose step is wide enough
to pay for the threads (``split_blocks``): the d-dim random walk. Median
``engine.run`` times, one worker against two, over alternating in-process
pairs (2-core VM): d-dim Gaussian rows gained 1.11x at d = 5 (N = 5000, t
= 100) and 1.64x at d = 40 (t = 20); the (s, r) rows broke even or lost
(0.571 against 0.585 s, and 0.548 against 0.627 s, at the d = 5 benchmark
run) and spin rows lost (0.73x at d = 15, N = 2000, t = 50), and so did the
neighbour walk's integer rows on a 4096-state path (0.87x at N = 5000, t =
100; 0.73x at N = 1e5, t = 20; ``kernel.mutate`` over 9 pairs). Every other
kernel runs its blocks on one thread whatever ``workers`` is; the noise is
per block, so the output is the same either way.

The count step (``DiscreteNeighborWalk.mutate_counts``) moves totals[j]
particles drawn i.i.d. from each row law laws[j] on an m-state path (on
the count path, a cell's share of the resampling law). They move
independently (Del Moral 2004), so it carries each row to laws[j] K^t
with no randomness and draws its particles with one multinomial: its
draws do not depend on t. It carries the rows by ``matrix_power(P, t)``
iff t > 1 and m^3 ceil(log2 t) <= C t, C = ``_T_STEP_COST`` (the matrix
power's O(m^3 log t) against t banded vector steps' O(t m)), else by the
banded steps. Median ms per call, matrix / banded route, each forced, two
cells of 4e6 and 6e6 particles on a restricted path, draws included
(numpy 2.4, OpenBLAS default threads, 2-core VM):

    m \\ t       2              5             50            100            638
      4  0.050 / 0.043  0.039 / 0.060  0.043 / 0.345  0.045 / 0.658  0.055 / 4.02
     64  0.054 / 0.050  0.069 / 0.068  0.103 / 0.367  0.113 / 0.699  0.178 / 4.32
     96  0.078 / 0.052  0.127 / 0.073  0.230 / 0.382  0.257 / 0.730  0.439 / 4.49
    128  16.0  / 0.057  0.346 / 0.142  0.935 / 0.751  1.025 / 1.458  1.487 / 8.80
    160  0.419 / 0.100  0.725 / 0.142  1.397 / 0.403  1.132 / 0.752  2.078 / 4.75
    256  0.752 / 0.070  2.174 / 0.095  3.719 / 0.428  4.275 / 0.840  8.441 / 4.99
    512  4.589 / 0.103  10.03 / 0.130  20.99 / 0.541  27.33 / 0.967  47.31 / 9.72

The banded route took 0.72 and 1.42 ms at t = 50 at m = 1024 and 2048.
The matrix route wins from t = 5 up to m = 64 (ties below), from t = 50
at m = 96, from t = 100 and 200 at m = 128 and 160, and nowhere from m =
256. C = 2e5 powers m <= 73 at t = 2, 118 at t = 50 and 233 at t = 638.
Products of m >= 65 run on OpenBLAS's threads, which on the 2-core VM
sometimes stall: the m = 128 matrix route took 16 ms at t = 2 in this
table, and a median 68 ms at t = 50 in one of three runs of 20 calls
after a 10 ms idle (0.84 and 1.26 ms in the other two).

Restriction follows the refuse-leaving-moves construction: a full base
step is simulated and the result is discarded (the particle stays put)
whenever it would land outside the particle's current cell. That
reproduces the restricted kernel exactly for any base kernel given as a
transition law, and makes the restricted chain invariant for the
within-cell conditional. Each discrete kernel builds its own exact matrix,
``transition_matrix(partition=None)``, restricted to the partition's cells
of its own states where one is given: the walk's from its refusing band,
the flip's by moving each row's cross-cell mass onto its diagonal.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .families import QUIET_LOG_Q, AnnealedFamily, Partition, finite_log_q


def default_step_variance(sigma: float, beta: float, d: int) -> float:
    """Classic random-walk scaling: 2.38^2 sigma^2 / (beta d)."""
    return 2.38**2 * sigma**2 / (beta * d)


_BLOCK = 1024  # rows per noise block; see the module docstring
_T_STEP_COST = 200_000  # the count step's crossover; see the module docstring


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


def _takes_t_step(m, t):
    """Whether ``mutate_counts`` takes the t-step matrix (module docstring)."""
    return t > 1 and m**3 * (int(t) - 1).bit_length() <= _T_STEP_COST * t


def _banded_laws(laws, down, up, t):
    """Each row law q of ``laws`` carried t steps, q <- q K, of the band
    (down, up); no mass crosses a refused move, of probability 0."""
    stay = 1.0 - (down + up)
    down, up = down[1:], up[:-1]
    q = np.array(laws, dtype=float)
    nxt = np.empty_like(q)
    for _ in range(t):
        np.multiply(q, stay, out=nxt)
        nxt[:, :-1] += q[:, 1:] * down
        nxt[:, 1:] += q[:, :-1] * up
        q, nxt = nxt, q
    return q


def multinomial_counts(laws, totals, rng):
    """Per-state counts of totals[j] i.i.d. draws from each row law laws[j]:
    one multinomial a row, over the states where its law is positive, so
    numpy's leftover (to the last category) stays on that support. Rows are
    drawn normalised: a t-step matrix's row sums drift by about t 1e-18."""
    out = np.zeros(np.shape(laws)[1], dtype=np.int64)
    for law, n in zip(laws, totals):
        if n:
            support = np.flatnonzero(law > 0)
            out[support] += rng.multinomial(n, law[support] / law[support].sum())
    return out


class _Metropolis:
    """The Metropolis driver shared by the particle kernels.

    A kernel supplies ``dtype`` (of its state array, None to keep the
    input's), ``log_density(x)``, ``new_moves(n)`` (an empty move buffer
    for n particles), ``fill_moves(rng, moves, rows)`` (draws the moves of
    the particles ``rows`` into the buffer, in place) and ``propose(x,
    moves, out)``; the driver owns the stream layout, the step buffers, the
    accept/refuse loop and the cell check.

    ``mutate`` draws one key per 1024-row block from ``rng``, seeds an
    SFC64 generator per block with it, then at each step fills per block,
    from that block's generator, the block's moves and then its ``rows``
    acceptance uniforms, and runs the step once over each worker's
    contiguous range of blocks (one range unless ``split_blocks``),
    accepting by ``np.copyto(..., where=)`` into the state rows. Its memory
    is O(N) rows whatever t is (module docstring). A proposal whose log
    density is not finite raises InvalidStateError.
    """

    dtype = None
    order = "K"  # memory layout of the state copy a call works on
    split_blocks = False  # whether workers share the blocks (module docstring)

    def draw_moves(self, rng, t, n):
        """t steps of moves for n particles, indexed ``[step, particle]``
        (the tempering loops' moves)."""
        moves = self.new_moves(t * n)
        self.fill_moves(rng, moves, slice(None))
        return moves.reshape(t, n, *moves.shape[1:])

    def mutate(self, states, t, rng, cells=None, partition=None, workers=1):
        x = np.array(states, dtype=self.dtype, order=self.order)
        if t == 0:
            return x
        n = x.shape[0]
        n_blocks = -(-n // _BLOCK)
        keys = rng.integers(0, 2**64, size=(n_blocks, 2), dtype=np.uint64)
        with np.errstate(**QUIET_LOG_Q):  # states whose log q was checked finite
            logp = np.asarray(self.log_density(x), dtype=float)

        def task(blocks):
            sl = slice(blocks.start * _BLOCK, min(n, blocks.stop * _BLOCK))
            xs, lp = x[sl], logp[sl]  # views: accepted moves land in x
            cs = cells[sl] if cells is not None else None
            gens = [np.random.Generator(np.random.SFC64(keys[b])) for b in blocks]
            m = sl.stop - sl.start
            rows = [slice(a, min(a + _BLOCK, m)) for a in range(0, m, _BLOCK)]
            # one step's noise, proposals and log ratios, reused every step
            moves, logu, y = self.new_moves(m), np.empty(m), np.empty_like(xs)
            ratio = np.empty(m)
            # a worker thread does not inherit the caller's numpy error state
            with np.errstate(**QUIET_LOG_Q):
                for _ in range(t):
                    for gen, r in zip(gens, rows):
                        self.fill_moves(gen, moves, r)
                        gen.random(out=logu[r])
                    np.log(logu, out=logu)
                    self.propose(xs, moves, out=y)
                    lpy = finite_log_q(self.log_density(y))
                    acc = logu < np.subtract(lpy, lp, out=ratio)
                    if partition is not None:
                        acc &= partition.classify(y) == cs
                    np.copyto(xs, y, where=acc.reshape((-1,) + (1,) * (y.ndim - 1)))
                    np.copyto(lp, lpy, where=acc)

        _run_chunked(task, n_blocks, workers if self.split_blocks else 1)
        return x

    def step(self, states, rng, cells=None, partition=None):
        return self.mutate(states, 1, rng, cells=cells, partition=partition)


class RandomWalkMetropolis(_Metropolis):
    """Gaussian random-walk Metropolis on real vectors.

    proposal_std is the per-coordinate standard deviation of the proposal
    increment; the default comes from ``default_step_variance``.
    """

    dtype = float
    split_blocks = True

    def __init__(self, log_density: Callable, proposal_std: float, dim: int):
        if not proposal_std > 0:  # NaN too
            raise ValueError(f"proposal_std must be positive, got {proposal_std}")
        self.log_density = log_density
        self.proposal_std = float(proposal_std)
        self.dim = int(dim)

    def new_moves(self, n):
        return np.empty((n, self.dim))

    def fill_moves(self, rng, moves, rows):
        block = moves[rows]
        rng.standard_normal(out=block)
        block *= self.proposal_std

    def propose(self, x, move, out=None):
        return np.add(x, move, out=out)


class RadialWalk(RandomWalkMetropolis):
    """``RandomWalkMetropolis`` on R^d, run on the (s, r) rows it lumps onto.

    A row (s, r) stands for every x with x . 1_d / sqrt(d) = s and
    |x - s 1_d / sqrt(d)| = r (``families.Lumping``). The walk x + h g,
    g ~ N(0, I_d), moves s to s + h g_1 and the part of x orthogonal to
    1_d, of length r, to one of length sqrt((r + h g_2)^2 + h^2 chi2_{d-2})
    by rotation invariance: g_2 is g's part along that orthogonal part, and
    chi2_{d-2} (2 Gamma((d - 2)/2)) the squared length of the rest. r is 0
    at d = 1 and |r + h g_2| at d = 2. Its moves are a (3, n) array of
    g_1, g_2 and the Gamma draw, O(1) numbers a particle whatever d is.
    """

    order = "F"  # contiguous s and r columns
    split_blocks = False

    def draw_moves(self, rng, t, n):
        raise NotImplementedError("the tempering loops run the d-dim walk")

    def new_moves(self, n):
        return np.empty((3, n))  # g_1, g_2 and the Gamma draw

    def fill_moves(self, rng, moves, rows):
        rng.standard_normal(out=moves[0, rows])
        rng.standard_normal(out=moves[1, rows])
        if self.dim > 2:
            rng.standard_gamma((self.dim - 2) / 2.0, out=moves[2, rows])

    def propose(self, x, moves, out=None):
        h = self.proposal_std
        out = np.empty_like(x) if out is None else out
        s, r = out[:, 0], out[:, 1]
        np.multiply(moves[0], h, out=s)
        s += x[:, 0]
        if self.dim == 1:
            r[:] = 0.0
            return out
        np.multiply(moves[1], h, out=r)
        r += x[:, 1]
        if self.dim == 2:
            np.abs(r, out=r)
        else:
            np.square(r, out=r)
            chi2 = moves[2]
            chi2 *= 2.0 * h * h
            r += chi2
            np.sqrt(r, out=r)
        return out


class SingleSiteFlip(_Metropolis):
    """Metropolis kernel flipping one uniformly chosen spin per step."""

    def __init__(self, log_density: Callable, dim: int):
        self.log_density = log_density
        self.dim = int(dim)

    def new_moves(self, n):
        return np.empty(n, dtype=np.int64)

    def fill_moves(self, rng, moves, rows):
        block = moves[rows]
        block[...] = rng.integers(0, self.dim, size=block.shape)

    def propose(self, x, move, out=None):
        out = np.empty_like(x) if out is None else out
        np.copyto(out, x)
        out[np.arange(x.shape[0]), move] *= -1
        return out

    def transition_matrix(self, partition=None) -> np.ndarray:
        """The exact one-step matrix over ``discrete.enumerate_spins(dim)``,
        where flipping site k toggles bit k of the state index, restricted
        to the cells of ``partition`` where one is given."""
        m = 2**self.dim
        if m > MAX_MATRIX_STATES:
            raise ValueError(f"spin space too large: 2**{self.dim}")
        from .discrete import enumerate_spins

        spins = enumerate_spins(self.dim)
        lm = np.asarray(self.log_density(spins), dtype=float)
        P = np.zeros((m, m))
        idx = np.arange(m)
        for k in range(self.dim):
            j = idx ^ (1 << k)
            P[idx, j] = np.minimum(1.0, np.exp(lm[j] - lm[idx])) / self.dim
        P[idx, idx] = 1.0 - P.sum(axis=1)
        if partition is None:
            return P
        return restrict_transition_matrix(P, partition.classify(spins))


class DiscreteNeighborWalk(_Metropolis):
    """Metropolized nearest-neighbor walk on an enumerated path of states,
    proposing neighbours with ``picks`` (down, up) (``_birth_death_band``).
    Particle moves draw each with 1/2 and refuse other picks."""

    dtype = np.int64

    def __init__(self, log_mass: np.ndarray, picks=(0.5, 0.5)):
        self.log_mass = np.asarray(log_mass, dtype=float)
        if self.log_mass.ndim != 1:
            raise ValueError("log_mass must be a vector over states")
        self.picks = picks

    @property
    def n_states(self):
        return self.log_mass.size

    def log_density(self, x):
        return self.log_mass[x]

    def new_moves(self, n):
        if not all(np.all(np.asarray(p) == 0.5) for p in self.picks):
            raise ValueError("particle moves propose each neighbour with 1/2")
        return np.empty(n, dtype=np.int64)

    def fill_moves(self, rng, moves, rows):
        block = moves[rows]
        block[...] = rng.integers(0, 2, size=block.shape)
        block *= 2
        block -= 1

    def propose(self, x, move, out=None):
        out = np.add(x, move, out=out)
        np.copyto(out, x, where=(out < 0) | (out >= self.n_states))
        return out

    def band(self, partition=None):
        """Per-state move probabilities ``(down, up)`` to i-1 and i+1
        (``_birth_death_band``)."""
        labels = None if partition is None else partition.classify(
            np.arange(self.n_states)
        )
        return _birth_death_band(self.log_mass, *self.picks, labels)

    def transition_matrix(self, partition=None) -> np.ndarray:
        """The exact one-step matrix of ``band(partition)``."""
        if self.n_states > MAX_MATRIX_STATES:
            raise ValueError(f"space too large: {self.n_states}")
        down, up = self.band(partition)
        P = np.diag(1.0 - (down + up))
        i = np.arange(self.n_states - 1)
        P[i + 1, i] = down[1:]
        P[i, i + 1] = up[:-1]
        return P

    def mutate_counts(self, laws, totals, t, rng, partition=None):
        """Per-state counts of totals[j] particles drawn i.i.d. from each
        row law laws[j] (a (k, m) array) and moved t steps, the law of
        ``mutate`` on them: each row carried to laws[j] K^t, then drawn
        from ``rng`` (module docstring). Under restriction a row that
        starts in one cell keeps exact zeros outside it."""
        if _takes_t_step(self.n_states, t):
            P = self.transition_matrix(partition)
            laws = laws @ np.linalg.matrix_power(P, t)
        elif t > 0:
            laws = _banded_laws(laws, *self.band(partition), t)
        return multinomial_counts(laws, totals, rng)


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
    if family.kind in ("real", "radial"):  # one step size h for both
        std = (
            float(step_size)
            if step_size is not None
            else math.sqrt(default_step_variance(family.sigma, beta, family.dimension))
        )
        walk = RandomWalkMetropolis if family.kind == "real" else RadialWalk
        return walk(lambda x: beta * family.log_q(x), std, family.dimension)
    if family.kind == "spin":
        return SingleSiteFlip(lambda x: beta * family.log_q(x), family.dimension)
    if family.kind == "index":
        return DiscreteNeighborWalk(beta * family.index_log_mass, family.index_picks)
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


def transition_matrix(kernel) -> np.ndarray:
    """Exact row-stochastic matrix of a kernel that builds its own; a
    ``RestrictedKernel``'s is its base's, built restricted."""
    partition = None
    if isinstance(kernel, RestrictedKernel):
        kernel, partition = kernel.base, kernel.partition
    build = getattr(kernel, "transition_matrix", None)
    if build is None:
        raise TypeError(f"no exact transition matrix for {type(kernel).__name__}")
    return build(partition)


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
