"""Replica-exchange and single-chain tempering baselines.

Standard community move sets over the same annealed family the particle
engine uses: replica exchange (PT) keeps one chain per inverse temperature
and proposes one uniformly chosen adjacent swap per sweep; single-chain
tempering (ST) augments the state with a temperature index moved by
Metropolis jumps against pseudo-priors. Both exist to contrast mixing
behavior with the restricted-kernel engine on the same targets.

One loop of each serves every family: chains cache their ``log q`` and
move by the stage kernel's ``draw_moves`` and ``propose`` (Gaussian moves
at unit scale, times each level's proposal std); PT moves all chains as
one batch.

Stream layout. INIT gives the initial states, one ``sample_initial(1)``
call per chain; the rest is drawn per block of sweeps. PT draws the move
block and then the acceptance uniforms from CHAIN, and the pair indices
and then their uniforms from SWAP. ST draws the moves, the move uniforms,
the jump signs and then the jump uniforms from CHAIN. A block holds at
most 8192 sweeps, fewer when its moves (``block * n_chains * d``
numbers) would pass ``_BLOCK_VALUES``.

Accept rules: a PT move if log u < b*lq(y) - b*lq(x), an ST move if
log u < b*(lq(y) - lq(x)), an ST jump from level k to j if
log u < (b_j - b_k)*lq + (psi_j - psi_k). The two move forms have one law
but may round differently; each keeps the arithmetic of the scalar loops
enumerated families had before, so those outputs stay byte-identical.

Every ``log q`` a chain computes must be finite (``families.finite_log_q``,
the engine's rule): the initial chains are checked at once and the
proposals once per block, and a failure raises InvalidStateError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .families import QUIET_LOG_Q, AnnealedFamily, Partition, finite_log_q
from .kernels import stage_kernel

_MAX_BLOCK = 8192
_BLOCK_VALUES = 1 << 22  # one block of moves: 32 MiB of float64


def _chains(family: AnnealedFamily, step_size, seed: int, n_chains: int,
            n_sweeps: int):
    """Move kernel, level move scales, block size, initial states, histogram.

    The histogram counts (level, state) visits on enumerated families and
    is None on the others.
    """
    if n_sweeps < 0:
        raise ValueError(f"n_sweeps must be >= 0, got {n_sweeps}")
    n_temps = len(family.betas)
    kernel = stage_kernel(family, n_temps - 1, step_size=1.0)
    scale = None  # Gaussian moves: each level's proposal std
    if family.kind == "real":
        scale = np.array([stage_kernel(family, v, step_size).proposal_std
                          for v in range(n_temps)])
    block = max(1, min(_MAX_BLOCK, _BLOCK_VALUES // (n_chains * family.dimension)))
    init = rngmod.stream(seed, 0, rngmod.INIT)
    x = np.concatenate([family.sample_initial(1, init) for _ in range(n_chains)])
    counts = None
    if family.kind == "index":
        counts = np.zeros((n_temps, family.index_log_mass.size), dtype=np.int64)
    return kernel, scale, block, np.asarray(x, dtype=kernel.dtype), counts


@dataclass
class PTResult:
    swap_attempts: np.ndarray
    swap_accepts: np.ndarray
    target_trace: np.ndarray  # beta=1 chain states per sweep
    marginal_counts: Optional[np.ndarray] = None  # (n_temps, n_states) for index

    @property
    def swap_acceptance(self) -> np.ndarray:
        return self.swap_accepts / np.maximum(self.swap_attempts, 1)


def pt_run(family: AnnealedFamily, n_sweeps: int, seed: int,
           step_size: Optional[float] = None) -> PTResult:
    """Run replica exchange for n_sweeps; deterministic given the seed.

    A sweep advances every chain one kernel step, then proposes one
    uniformly chosen adjacent swap. The beta=1 chain's state after every
    sweep is kept as the target trace.
    """
    betas = np.asarray(family.betas)
    n = betas.size
    kernel, scale, block, x, counts = _chains(family, step_size, seed, n, n_sweeps)
    with np.errstate(**QUIET_LOG_Q):
        lq = finite_log_q(family.log_q(x))
    attempts = np.zeros(n - 1, dtype=np.int64)
    accepts = np.zeros(n - 1, dtype=np.int64)
    trace = np.empty((n_sweeps, *x.shape[1:]), x.dtype)
    gen = rngmod.stream(seed, 0, rngmod.CHAIN)
    sgen = rngmod.stream(seed, 0, rngmod.SWAP)
    for done in range(0, n_sweeps, block):
        b = min(block, n_sweeps - done)
        moves = kernel.draw_moves(gen, b, n)
        logu = np.log(gen.random((b, n)))
        pair = sgen.integers(0, n - 1, size=b)
        slogu = np.log(sgen.random(b)).tolist()
        held = np.empty((b, *x.shape), x.dtype)
        proposed = np.empty((b, n))
        with np.errstate(**QUIET_LOG_Q):  # an overflowed move fails finite_log_q
            if scale is not None:
                moves *= scale[:, None]
            for s, k in enumerate(pair.tolist()):
                y = kernel.propose(x, moves[s])
                lq_y = proposed[s] = family.log_q(y)
                acc = logu[s] < betas * lq_y - betas * lq
                x[acc] = y[acc]
                lq[acc] = lq_y[acc]
                if slogu[s] < (betas[k + 1] - betas[k]) * (lq[k] - lq[k + 1]):
                    x[[k, k + 1]] = x[[k + 1, k]]
                    lq[[k, k + 1]] = lq[[k + 1, k]]
                    accepts[k] += 1
                held[s] = x
        finite_log_q(proposed)
        attempts += np.bincount(pair, minlength=n - 1)
        trace[done : done + b] = held[:, -1]
        if counts is not None:
            np.add.at(counts, (np.arange(n), held), 1)
    return PTResult(attempts, accepts, trace, counts)


@dataclass
class STResult:
    temp_counts: np.ndarray
    marginal_counts: Optional[np.ndarray] = None  # per-temp state histogram


def st_run(family: AnnealedFamily, n_sweeps: int, seed: int, log_pseudo,
           step_size: Optional[float] = None) -> STResult:
    """Run single-chain tempering; log_pseudo is one weight per stage.

    A sweep takes one kernel step at the current temperature, then
    proposes a jump up or down with probability 1/2 each; jumps off the
    ladder are rejected, which keeps the joint chain reversible for the
    law with per-temperature pseudo-prior weights.
    """
    log_pseudo = np.asarray(log_pseudo, dtype=float)
    if log_pseudo.shape != (family.n_stages + 1,):
        raise ValueError("need one pseudo-prior weight per stage")
    if not np.all(np.isfinite(log_pseudo)):
        raise ValueError("log_pseudo must be finite")
    betas = family.betas
    n_temps = len(betas)
    kernel, scale, block, x, counts = _chains(family, step_size, seed, 1, n_sweeps)
    with np.errstate(**QUIET_LOG_Q):
        lq = finite_log_q(family.log_q(x))[0]
    k = 0
    temp_counts = np.zeros(n_temps, dtype=np.int64)
    gen = rngmod.stream(seed, 0, rngmod.CHAIN)
    for done in range(0, n_sweeps, block):
        b = min(block, n_sweeps - done)
        moves = kernel.draw_moves(gen, b, 1)
        logu = np.log(gen.random(b)).tolist()
        jumps = (gen.integers(0, 2, size=b) * 2 - 1).tolist()
        logj = np.log(gen.random(b)).tolist()
        temps = np.empty(b, dtype=np.int64)
        held = np.empty((b, *x.shape), x.dtype)
        proposed = np.empty(b)
        with np.errstate(**QUIET_LOG_Q):
            for s in range(b):
                move = moves[s] if scale is None else moves[s] * scale[k]
                y = kernel.propose(x, move)
                lq_y = proposed[s] = family.log_q(y)[0]
                if logu[s] < betas[k] * (lq_y - lq):
                    x, lq = y, lq_y
                j = k + jumps[s]
                if 0 <= j < n_temps and logj[s] < (betas[j] - betas[k]) * lq + (
                        log_pseudo[j] - log_pseudo[k]):
                    k = j
                temps[s] = k
                held[s] = x
        finite_log_q(proposed)
        temp_counts += np.bincount(temps, minlength=n_temps)
        if counts is not None:
            np.add.at(counts, (temps, held[:, 0]), 1)
    return STResult(temp_counts, counts)


@dataclass(frozen=True)
class ModeCrossingReport:
    crossings_per_sweep: float
    occupancy: np.ndarray  # per-cell fraction of the trace; empty for no sweeps


def mode_crossing_report(trace, partition: Partition) -> ModeCrossingReport:
    """Count cell-label changes along a recorded trace of states."""
    with np.errstate(**QUIET_LOG_Q):  # a row sum past float range keeps its sign
        labels = partition.classify(np.asarray(trace))
    n = labels.shape[0]
    crossings = int((labels[1:] != labels[:-1]).sum())
    occupancy = np.bincount(labels, minlength=partition.n_cells) / n if n else []
    return ModeCrossingReport(crossings / max(1, n - 1), np.asarray(occupancy))
