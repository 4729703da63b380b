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
independently (Del Moral 2004), so it carries each row to laws[j] K^t with
no randomness and draws its particles with one multinomial: its draws do
not depend on t. It carries the rows by ``matrix_power(P, t)`` iff t > 1
and m^3 ceil(log2 t) <= C t, C = ``_T_STEP_COST`` (the matrix power's
O(m^3 log t) against t banded vector steps' O(t m)), else by t banded
steps (``_banded_laws``). A banded step multiplies a zero-padded (3, rows,
m) window of the rows by the taps (up, stay, down) and adds the products
as (stay + down) + up: three numpy calls a step, with the bits of the
five-call sliced loop the tests keep as a reference. Restricted, rows that
each lie in their own cell (row j in cell j, the engine's layout) never
exchange mass, so the banded steps carry their sum as one row and split it
back by cell, with the same bits as carrying each row; any other rows
(several in one cell, a row across cells, unrestricted rows) are carried
row by row. The matrix route is per row either way. Median ms per call,
matrix / banded route, each forced, draws included, two cells of 4e6 and
6e6 particles on a two-basin path (numpy 2.4, OpenBLAS default threads,
2-core VM), restricted (one summed row) and free (two rows):

    restricted  2              5              50             100            638
      4  0.040 / 0.074  0.037 / 0.073  0.042 / 0.145  0.042 / 0.296  0.050 / 1.13
     16  0.037 / 0.068  0.039 / 0.073  0.044 / 0.149  0.044 / 0.240  0.054 / 1.16
     32  0.038 / 0.068  0.045 / 0.075  0.055 / 0.156  0.064 / 0.234  0.077 / 1.16
     48  0.046 / 0.078  0.060 / 0.080  0.077 / 0.157  0.081 / 0.256  0.106 / 1.19
     64  0.060 / 0.078  0.066 / 0.081  0.100 / 0.168  0.114 / 0.268  0.164 / 1.18
     96  0.074 / 0.085  0.122 / 0.087  0.218 / 0.166  0.242 / 0.259  0.410 / 1.20
    128  16.00 / 0.089  47.95 / 0.094  0.727 / 0.172  0.812 / 0.263  1.176 / 1.25
    160  0.291 / 0.093  0.522 / 0.099  1.097 / 0.192  1.125 / 0.268  2.557 / 1.33
    256  0.639 / 0.103  1.705 / 0.111  3.540 / 0.203  3.650 / 0.517  6.829 / 1.39
    512  3.824 / 0.126  7.966 / 0.132  17.12 / 0.272  20.62 / 0.414  34.43 / 2.07

    free        2              5              50             100            638
      4  0.038 / 0.062  0.034 / 0.060  0.039 / 0.194  0.040 / 0.342  0.045 / 1.96
     64  0.055 / 0.063  0.063 / 0.074  0.102 / 0.234  0.114 / 0.384  0.168 / 2.06
     96  0.071 / 0.067  0.119 / 0.080  0.227 / 0.235  0.249 / 0.400  0.424 / 2.27
    128  0.141 / 0.094  0.277 / 0.106  0.750 / 0.349  0.834 / 0.617  1.333 / 3.48
    256  0.892 / 0.107  2.380 / 0.125  4.681 / 0.390  5.244 / 0.717  9.803 / 4.04
    512  8.087 / 0.138  17.74 / 0.142  17.96 / 0.449  19.56 / 0.788  37.33 / 4.58

The banded route took 0.38 / 0.71 ms (restricted / free) at m = 1024 and
0.65 / 1.19 ms at m = 2048, t = 50. The matrix route wins at every t up to
m = 64; from m = 96 to 160 it wins mostly at t = 100 and 638 (by up to 0.8
ms restricted and 2.1 ms free), and nowhere from m = 256. Products of m >=
65 run on OpenBLAS's threads, which on the 2-core VM stall: the m = 128
matrix route took a median 16 and 48 ms at t = 2 and 5 in two of three
restricted runs of this table, and at t = 638 after a 10 ms idle 3 of 20
calls took over 5 ms (the slowest 246 ms). So C keeps every m >= 65 on the
banded steps up to t = 638, C < 65^3 * 10 / 638 = 4304.5: at C = 4300 the
matrix route takes m <= 20 at t = 2, 32 at t = 50 and 64 at t = 638 (m =
64 from t = 610), and m >= 65 only past t = 638 (75 at t = 1000, 145 at t
= 1e4). That gives up at most 0.15 ms a call restricted (0.27 ms free) at
m = 21-64, and the wins above m = 64 at t = 100 and 638.

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
_T_STEP_COST = 4_300  # the count step's crossover; see the module docstring


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
    (down, up); no mass crosses a refused move, of probability 0.

    The rows live in two buffers padded with a zero column at each end. A
    step multiplies the (3, rows, m) window (q[i-1], q[i], q[i+1]) of one
    buffer by the taps (up[i-1], stay[i], down[i+1]) and adds the products
    as (stay + down) + up into the other buffer's interior: the terms of
    q K in a fixed order, the padding adding only +0.0."""
    q = np.array(laws, dtype=float)
    rows, m = q.shape
    taps = np.zeros((3, 1, m))
    taps[0, 0, 1:] = up[:-1]
    taps[1, 0] = 1.0 - (down + up)
    taps[2, 0, :-1] = down[1:]
    bufs = np.zeros((2, rows, m + 2))
    bufs[0, :, 1:-1] = q
    windows = np.lib.stride_tricks.sliding_window_view(bufs, 3, axis=2)
    windows = windows.transpose(3, 0, 1, 2)  # [tap, buffer, row, state]
    steps = [(windows[:, a], bufs[1 - a, :, 1:-1]) for a in (0, 1)]
    prod = np.empty((3, rows, m))
    by_up, by_stay, by_down = prod
    for s in range(t):
        window, inner = steps[s % 2]
        np.multiply(window, taps, out=prod)
        np.add(by_stay, by_down, out=inner)
        np.add(inner, by_up, out=inner)
    return bufs[t % 2, :, 1:-1].copy()


def _own_cells(laws, labels):
    """The (k, m) mask ``labels == j`` of each row j's own cell if no row
    has mass outside it, else None (a row past the last cell has no own
    cell). Restricted, such rows never exchange mass, so their sum carried
    t steps and split back by the mask is each row carried t steps, bit for
    bit (module docstring)."""
    laws = np.asarray(laws)
    own = labels == np.arange(laws.shape[0])[:, None]
    return None if np.any(laws, where=~own) else own


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

    def _labels(self, partition):
        if partition is None:
            return None
        return partition.classify(np.arange(self.n_states))

    def band(self, partition=None):
        """Per-state move probabilities ``(down, up)`` to i-1 and i+1
        (``_birth_death_band``)."""
        return _birth_death_band(self.log_mass, *self.picks, self._labels(partition))

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
        starts in one cell keeps exact zeros outside it, and banded steps
        carry rows that each lie in their own cell as one summed row."""
        if _takes_t_step(self.n_states, t):
            P = self.transition_matrix(partition)
            laws = laws @ np.linalg.matrix_power(P, t)
        elif t > 0:
            labels = self._labels(partition)
            band = _birth_death_band(self.log_mass, *self.picks, labels)
            own = None if labels is None else _own_cells(laws, labels)
            if own is None:
                laws = _banded_laws(laws, *band, t)
            else:
                summed = _banded_laws(np.sum(laws, axis=0, keepdims=True), *band, t)
                laws = np.where(own, summed, 0.0)
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
