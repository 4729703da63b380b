import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from modesmc import (
    DiscreteNeighborWalk,
    RadialWalk,
    RandomWalkMetropolis,
    RestrictedKernel,
    RunConfig,
    SingleSiteFlip,
    gaussian_mixture_target,
    index_family,
    index_partition,
    ising_target,
    mixing_time_bound,
    restrict_transition_matrix,
    run,
    spectral_gap,
    stage_kernel,
    stationary_distribution,
    transition_matrix,
)
from modesmc import kernels
from modesmc import rng as rngmod
from modesmc.discrete import enumerate_spins
from modesmc.kernels import _takes_t_step, cell_submatrix
from conftest import assert_frequencies_close, same_bits


def _stream(tag):
    return rngmod.stream(915, tag, rngmod.REPLICATE)


class TestStep:
    def test_flat_spin_target_accepts_everything(self):
        fam, _ = ising_target(5, 0.0)
        kernel = stage_kernel(fam, 1)
        x = np.ones((2_000, 5), dtype=np.int8)
        y = kernel.step(x, _stream(0))
        assert np.all((y != x).sum(axis=1) == 1)

    def test_four_state_one_step_law(self, space, oracle):
        kernel = stage_kernel(space.to_family(), 3)
        P = transition_matrix(kernel)
        n = 1_000_000
        start = np.full(n, 1, dtype=np.int64)
        out = kernel.step(start, _stream(1))
        assert_frequencies_close(np.bincount(out, minlength=4), P[1], n_se=3.0)

    def test_rwm_symmetric_target_mean(self):
        kernel = RandomWalkMetropolis(
            lambda x: -0.5 * (x**2).sum(axis=1), proposal_std=0.5, dim=1
        )
        x = np.zeros((400, 1))
        x = kernel.mutate(x, 2_000, _stream(2))
        assert abs(x.mean()) < 4 * 1.0 / math.sqrt(400)  # crude iid-scale bound

    def test_mutate_zero_steps_is_identity(self, space):
        kernel = stage_kernel(space.to_family(), 1)
        x = np.array([0, 1, 2, 3])
        assert np.array_equal(kernel.mutate(x, 0, _stream(3)), x)


class TestRestriction:
    def test_in_cell_moves_match_base_kernel(self, space):
        # same stream: whenever the base outcome stays in the cell, the
        # restricted outcome is identical
        fam, part = space.to_family(), space.to_partition()
        kernel = stage_kernel(fam, 2)
        x = _stream(4).integers(0, 4, size=50_000)
        cells = part.classify(x)
        base_out = kernel.step(x, _stream(5))
        restricted_out = kernel.step(x, _stream(5), cells=cells, partition=part)
        stayed = part.classify(base_out) == cells
        assert np.array_equal(base_out[stayed], restricted_out[stayed])
        assert np.array_equal(restricted_out[~stayed], x[~stayed])

    def test_single_state_cells_never_move(self):
        walk = DiscreteNeighborWalk(np.log([0.5, 0.5]))
        from modesmc import index_partition

        part = index_partition(np.array([0, 1]))
        x = np.array([0, 1, 0, 1])
        out = walk.mutate(x, 25, _stream(6), cells=part.classify(x), partition=part)
        assert np.array_equal(out, x)

    def test_cell_confinement_over_many_steps(self, space):
        fam, part = space.to_family(), space.to_partition()
        kernel = stage_kernel(fam, 1)
        x = _stream(7).integers(0, 4, size=100_000)
        cells = part.classify(x)
        # 10^6 restricted steps
        out = kernel.mutate(x, 10, _stream(8), cells=cells, partition=part)
        assert np.array_equal(part.classify(out), cells)

    def test_restricted_matrix_is_refusal_formula(self, space):
        # oracle: apply the refusal construction entry by entry
        kernel = stage_kernel(space.to_family(), 2)
        P = transition_matrix(kernel)
        labels = space.labels
        R = np.zeros_like(P)
        for i in range(4):
            for j in range(4):
                if labels[i] == labels[j] and i != j:
                    R[i, j] = P[i, j]
            leak = sum(P[i, j] for j in range(4) if labels[j] != labels[i])
            R[i, i] = P[i, i] + leak
        assert np.allclose(
            restrict_transition_matrix(P, labels), R, atol=1e-15
        )
        got = transition_matrix(RestrictedKernel(kernel, space.to_partition()))
        assert np.max(np.abs(got - R)) < 1e-12

    def test_restricted_stationary_is_conditional(self, space, oracle):
        # oracle: the normalized target restricted to the cell
        for v in (1, 2, 3):
            kernel = stage_kernel(space.to_family(), v)
            R = restrict_transition_matrix(transition_matrix(kernel), space.labels)
            for j, members in ((0, [0, 1]), (1, [2, 3])):
                sub = cell_submatrix(R, space.labels, j)
                masses = [oracle["pi"][i] ** oracle["betas"][v] for i in members]
                cond = np.array(masses) / sum(masses)
                pi_hat = stationary_distribution(sub)
                assert np.max(np.abs(pi_hat - cond)) < 1e-10
                assert np.max(np.abs(cond @ sub - cond)) < 1e-10


class TestTransitionMatrices:
    def test_rows_sum_to_one(self, space):
        for v in (1, 3):
            P = transition_matrix(stage_kernel(space.to_family(), v))
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-12

    def test_spin_flip_matrix_structure(self):
        # oracle: direct construction, one neighbor per site
        d, alpha, beta = 3, 1.0, 2.0 / 3.0
        fam, _ = ising_target(d, alpha)
        kernel = SingleSiteFlip(lambda x: beta * fam.log_q(x), d)
        P = transition_matrix(kernel)
        spins = enumerate_spins(d)
        lq = beta * fam.log_q(spins)
        for i in range(8):
            offdiag = 0
            for k in range(d):
                j = i ^ (1 << k)
                expected = min(1.0, math.exp(lq[j] - lq[i])) / d
                assert np.isclose(P[i, j], expected)
                offdiag += expected
            assert np.isclose(P[i, i], 1.0 - offdiag)
        assert np.count_nonzero(P - np.diag(np.diag(P))) <= 8 * d

    def test_detailed_balance_exact(self, space):
        for v in (1, 2, 3):
            P = transition_matrix(stage_kernel(space.to_family(), v))
            pi = space.stage_probs(v)
            flux = pi[:, None] * P
            assert np.max(np.abs(flux - flux.T)) < 1e-10

    def test_detailed_balance_on_random_spaces(self):
        from modesmc import random_tempered_space

        gen = rngmod.stream(916, 0, rngmod.REPLICATE)
        for _ in range(25):
            sp = random_tempered_space(gen)
            v = int(gen.integers(1, sp.n_stages + 1))
            P = transition_matrix(stage_kernel(sp.to_family(), v))
            pi = sp.stage_probs(v)
            flux = pi[:, None] * P
            assert np.max(np.abs(flux - flux.T)) < 1e-10

    def test_spin_flip_empirical_row(self):
        d = 3
        fam, _ = ising_target(d, 1.0)
        kernel = stage_kernel(fam, d)  # beta = 1
        P = transition_matrix(kernel)
        spins = enumerate_spins(d)
        i = 6
        n = 400_000
        x = np.tile(spins[i], (n, 1))
        y = kernel.step(x, _stream(9))
        # map outcomes back to state indices (binary encoding of up-spins)
        idx = ((y > 0) << np.arange(d)).sum(axis=1)
        assert_frequencies_close(np.bincount(idx, minlength=8), P[i], n_se=4.0)

    def test_too_large_space_rejected(self):
        def log_density(x):  # the guard raises before any state is built
            raise AssertionError("states were enumerated")

        for kernel in (DiscreteNeighborWalk(np.zeros(10_001)),
                       SingleSiteFlip(log_density, 14)):
            with pytest.raises(ValueError, match="too large"):
                transition_matrix(kernel)

    def test_kernel_without_exact_law_rejected(self):
        fam, part = gaussian_mixture_target(2)
        kernel = stage_kernel(fam, 1)
        for k in (kernel, RestrictedKernel(kernel, part)):
            with pytest.raises(TypeError):
                transition_matrix(k)


class TestSpectralGap:
    def test_two_state_closed_form(self):
        a, b = 0.3, 0.45
        P = np.array([[1 - a, a], [b, 1 - b]])
        assert np.isclose(spectral_gap(P), a + b, atol=1e-12)

    def test_identity_has_no_gap(self):
        assert spectral_gap(np.eye(2)) == 0.0

    def test_single_state_is_instant(self):
        assert spectral_gap(np.eye(1)) == 1.0

    def test_uniform_jump_has_full_gap(self):
        P = np.full((4, 4), 0.25)
        assert np.isclose(spectral_gap(P), 1.0, atol=1e-12)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            spectral_gap(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_non_reversible_rejected(self):
        cycle = np.array([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
        with pytest.raises(ValueError):
            spectral_gap(cycle)


class TestMixingTimeBound:
    def test_hand_value(self):
        # log(2/0.2) + log(6) = 4.0943... -> 5
        assert mixing_time_bound(1.0, 0.2, 7) == 5

    def test_m_one_clamps_to_one(self):
        assert mixing_time_bound(0.5, 0.3, 1.0) == 1

    def test_halving_gap_doubles_pre_ceiling(self):
        raw = math.log(2 / 0.01) + math.log(6)
        assert mixing_time_bound(0.5, 0.01, 7) == math.ceil(raw / 0.5)
        assert mixing_time_bound(0.25, 0.01, 7) == math.ceil(raw / 0.25)

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            mixing_time_bound(0.0, 0.1, 7)


class TestStreamLayout:
    @pytest.mark.parametrize("t", [10, 400])
    def test_mutate_memory_does_not_grow_with_steps(self, t):
        fam, part = gaussian_mixture_target(5)
        kernel = stage_kernel(fam, 4)
        x = fam.sample_initial(5_000, _stream(64))
        cells = part.classify(x)
        tracemalloc.start()
        try:
            kernel.mutate(x, t, _stream(65), cells=cells, partition=part)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_successive_steps_draw_fresh_noise(self):
        fam, _ = ising_target(5, 0.0)  # flat: every proposal is accepted
        kernel = stage_kernel(fam, 1)
        x = np.ones((2_000, 5), dtype=np.int8)
        gen = _stream(66)
        assert not np.array_equal(kernel.step(x, gen), kernel.step(x, gen))

    def test_blocks_draw_distinct_noise(self):
        fam, _ = ising_target(5, 0.0)
        kernel = stage_kernel(fam, 1)
        y = kernel.step(np.ones((3_000, 5), dtype=np.int8), _stream(67))
        blocks = [y[a : a + 952] for a in (0, 1024, 2048)]  # 952 rows in each
        assert not np.array_equal(blocks[0], blocks[1])
        assert not np.array_equal(blocks[1], blocks[2])


class TestWorkerInvariance:
    def test_chunked_mutation_matches_serial(self, space):
        fam, part = space.to_family(), space.to_partition()
        kernel = stage_kernel(fam, 2)
        x = _stream(11).integers(0, 4, size=10_001)
        cells = part.classify(x)
        a = kernel.mutate(x, 7, _stream(12), cells=cells, partition=part, workers=1)
        b = kernel.mutate(x, 7, _stream(12), cells=cells, partition=part, workers=5)
        assert np.array_equal(a, b)

    def test_chunked_rwm_matches_serial(self):
        kernel = RandomWalkMetropolis(
            lambda x: -0.5 * (x**2).sum(axis=1), proposal_std=0.8, dim=3
        )
        x = _stream(13).normal(size=(777, 3))
        a = kernel.mutate(x, 9, _stream(14), workers=1)
        b = kernel.mutate(x, 9, _stream(14), workers=4)
        assert np.array_equal(a, b)

    def test_only_the_d_dim_walk_splits_blocks(self, monkeypatch, space):
        # threads pay only on the d-dim walk's wide steps; every other
        # kernel runs its blocks on one worker whatever it is given
        import modesmc.kernels

        split = []

        def chunked(task, n, workers):
            split.append(workers)
            task(range(n))

        monkeypatch.setattr(modesmc.kernels, "_run_chunked", chunked)
        gauss, part = gaussian_mixture_target(5)
        spins, _ = ising_target(5, 1.0)
        cases = [
            (stage_kernel(gauss, 2), gauss.sample_initial(3_000, _stream(15)), 4),
            (stage_kernel(gauss.lumping.family, 2),
             gauss.lumping.family.sample_initial(3_000, _stream(16)), 1),
            (stage_kernel(spins, 2), spins.sample_initial(3_000, _stream(17)), 1),
            (stage_kernel(space.to_family(), 2),
             _stream(18).integers(0, 4, size=3_000), 1),
        ]
        for kernel, x, workers in cases:
            kernel.mutate(x, 2, _stream(19), workers=4)
            assert split.pop() == workers, type(kernel).__name__


# ---------------------------------------------------------------------------
# The count step against the dense per-state reference.


def _loop_transition_matrix(log_mass):
    """Reference: the neighbour walk's matrix filled entry by entry."""
    lm = np.asarray(log_mass, dtype=float)
    m = lm.size
    P = np.zeros((m, m))
    for i in range(m):
        for j in (i - 1, i + 1):
            if 0 <= j < m:
                P[i, j] = 0.5 * min(1.0, math.exp(lm[j] - lm[i]))
        P[i, i] = 1.0 - P[i].sum()
    return P


def _dense_mutate_counts(P, counts, t, rng):
    """Reference law: one multinomial split per occupied state per step."""
    counts = np.asarray(counts, dtype=np.int64).copy()
    for _ in range(t):
        new = np.zeros_like(counts)
        for i in np.flatnonzero(counts):
            new += rng.multinomial(counts[i], P[i])
        counts = new
    return counts


def _per_state(counts):
    """Per-state counts as ``mutate_counts`` input: each occupied state's
    particles start there, one point-mass row a state."""
    counts = np.asarray(counts, dtype=np.int64)
    occupied = np.flatnonzero(counts)
    return np.eye(counts.size)[occupied], counts[occupied]


def _count_step(walk, counts, t, rng, partition=None):
    return walk.mutate_counts(*_per_state(counts), t, rng, partition=partition)


def _two_basin(m):
    """A walk on m states with one basin per half and a cell edge between."""
    x = np.arange(m)
    lm = -np.minimum((x - m / 4) ** 2, (x - 3 * m / 4) ** 2) / (0.15 * m) ** 2
    lm += np.where(x < m // 2, 0.0, np.log(1.5))  # unequal basins
    labels = (x >= m // 2).astype(np.int64)
    return DiscreteNeighborWalk(lm), labels


def _cell_laws(walk, labels):
    """Each cell's share of the walk's target: the count path's start laws."""
    pi = np.exp(walk.log_mass - walk.log_mass.max())
    laws = np.zeros((2, labels.size))
    for j in (0, 1):
        laws[j, labels == j] = pi[labels == j] / pi[labels == j].sum()
    return laws


def _edge_m(t):
    """The largest path ``_takes_t_step`` carries by the t-step matrix."""
    m = round((kernels._T_STEP_COST * t / (t - 1).bit_length()) ** (1 / 3))
    while not _takes_t_step(m, t):
        m -= 1
    while _takes_t_step(m + 1, t):
        m += 1
    return m


class TestBandedCountStep:
    def test_matrix_equals_entrywise_loop(self):
        gen = rngmod.stream(917, 0, rngmod.REPLICATE)
        for m in (1, 2, 3, 64, 513):
            lm = 4.0 * gen.standard_normal(m)
            got = DiscreteNeighborWalk(lm).transition_matrix()
            assert np.allclose(got, _loop_transition_matrix(lm), rtol=0, atol=1e-15)

    def test_restricted_band_is_refusal_matrix(self):
        walk, labels = _two_basin(12)
        down, up = walk.band(index_partition(labels))
        R = restrict_transition_matrix(_loop_transition_matrix(walk.log_mass), labels)
        assert np.allclose(np.diag(R, -1), down[1:], rtol=0, atol=1e-15)
        assert np.allclose(np.diag(R, 1), up[:-1], rtol=0, atol=1e-15)
        assert down[0] == 0.0 and up[-1] == 0.0
        assert np.allclose(
            walk.transition_matrix(index_partition(labels)), R, rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("start,restricted,t", [
        # ends, interior, edge; one step (banded) and 40 (the t-step matrix)
        pytest.param(start, restricted, t,
                     id=f"{start}-{restricted}" + ("" if t == 1 else f"-t{t}"))
        for t in (1, 40) for restricted in (False, True) for start in (0, 11, 3, 5, 6)
    ])
    def test_one_step_split_chi_square(self, start, restricted, t):
        walk, labels = _two_basin(12)
        assert _takes_t_step(12, t) == (t > 1)
        P = _loop_transition_matrix(walk.log_mass)
        part = None
        if restricted:
            part = index_partition(labels)
            P = restrict_transition_matrix(P, labels)
        n = 1_000_000
        counts = np.zeros(12, dtype=np.int64)
        counts[start] = n
        out = _count_step(walk, counts, t, _stream(20 + start), partition=part)
        row = np.linalg.matrix_power(P, t)[start]
        support = row > 0
        assert out.sum() == n
        assert np.all(out[~support] == 0)
        expected = n * row[support]
        chi2 = ((out[support] - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi2, support.sum() - 1) > 1e-3

    @pytest.mark.parametrize("restricted,m", [
        # 64 states take the t-step matrix at t = 5, 128 the banded steps
        pytest.param(restricted, m, id=f"{restricted}" + ("" if m == 64 else f"-m{m}"))
        for m in (64, 128) for restricted in (False, True)
    ])
    def test_mean_counts_after_five_steps(self, restricted, m):
        walk, labels = _two_basin(m)
        assert _takes_t_step(m, 5) == (m == 64)
        P = _loop_transition_matrix(walk.log_mass)
        part = None
        if restricted:
            part = index_partition(labels)
            P = restrict_transition_matrix(P, labels)
        counts = (np.arange(m) % 7) * 100
        gen = _stream(40 + restricted)
        runs = np.array(
            [_count_step(walk, counts, 5, gen, partition=part) for _ in range(400)]
        )
        expected = counts @ np.linalg.matrix_power(P, 5)
        se = runs.std(axis=0, ddof=1) / math.sqrt(runs.shape[0])
        assert np.all(np.abs(runs.mean(axis=0) - expected) <= 4 * se + 1e-9)

    def test_banded_and_dense_reference_agree(self):
        walk, labels = _two_basin(64)
        part = index_partition(labels)
        P = restrict_transition_matrix(_loop_transition_matrix(walk.log_mass), labels)
        counts = (np.arange(64) % 5) * 40
        gen = _stream(42)
        banded = np.array(
            [_count_step(walk, counts, 5, gen, partition=part) for _ in range(300)]
        )
        dense = np.array([_dense_mutate_counts(P, counts, 5, gen) for _ in range(300)])
        diff = banded.mean(axis=0) - dense.mean(axis=0)
        se = np.sqrt((banded.var(axis=0, ddof=1) + dense.var(axis=0, ddof=1)) / 300)
        assert np.all(np.abs(diff) <= 4 * se + 1e-9)

    def test_total_conserved_and_cells_sealed(self):
        walk, labels = _two_basin(64)
        part = index_partition(labels)
        counts = _stream(43).multinomial(10**6, np.full(64, 1 / 64))
        free = _count_step(walk, counts, 50, _stream(44))
        sealed = _count_step(walk, counts, 50, _stream(45), partition=part)
        assert free.sum() == counts.sum()
        assert np.array_equal(
            np.bincount(labels, weights=sealed), np.bincount(labels, weights=counts)
        )
        assert np.all(free >= 0) and np.all(sealed >= 0)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_spin_level_walk_is_the_lumped_flip_chain(self, restricted):
        # the level walk's exact matrix is the 2**5-state flip chain's,
        # lumped by the number of +1 spins (Kemeny and Snell's criterion:
        # every configuration of a level moves to each level alike)
        fam, part = ising_target(5, 2.0)
        spins = enumerate_spins(5)
        level = (spins == 1).sum(axis=1)
        walk = stage_kernel(fam.lumping.family, 3)
        P_flip = transition_matrix(stage_kernel(fam, 3))
        if restricted:
            walk = RestrictedKernel(walk, part.reduced)
            cells = part.classify(spins)
            R = transition_matrix(RestrictedKernel(stage_kernel(fam, 3), part))
            assert same_bits(R, restrict_transition_matrix(P_flip, cells))
            assert not np.any(R[cells[:, None] != cells[None, :]])
            P_flip = R
        P_walk = transition_matrix(walk)
        for i in range(32):
            lumped = np.bincount(level, weights=P_flip[i], minlength=6)
            assert np.allclose(lumped, P_walk[level[i]], rtol=0, atol=1e-14)

    def test_particle_moves_refuse_other_picks(self):
        fam, _ = ising_target(5, 1.0)
        walk = stage_kernel(fam.lumping.family, 2)
        states = np.arange(6)
        assert np.array_equal(walk.mutate(states, 0, _stream(48)), states)
        with pytest.raises(ValueError, match="1/2"):
            walk.mutate(states, 1, _stream(48))
        with pytest.raises(ValueError, match="1/2"):
            walk.draw_moves(_stream(48), 2, 3)

    def test_zero_steps_and_empty_states(self):
        walk, labels = _two_basin(64)
        counts = np.zeros(64, dtype=np.int64)
        counts[20:23] = [5, 0, 7]
        out0 = _count_step(walk, counts, 0, _stream(46))
        assert np.array_equal(out0, counts) and out0 is not counts
        out1 = _count_step(walk, counts, 1, _stream(47), partition=index_partition(labels))
        assert out1.sum() == 12
        assert np.all(out1[:19] == 0) and np.all(out1[24:] == 0)
        out2 = _count_step(walk, counts, 2, _stream(47), partition=index_partition(labels))
        assert _takes_t_step(64, 2) and out2.sum() == 12
        assert np.all(out2[:18] == 0) and np.all(out2[25:] == 0)
        # a row with no particles (an empty cell's all-zero law) draws nothing
        laws, _ = _per_state(counts)
        laws[0] = 0.0
        out3 = walk.mutate_counts(laws, [0, 7], 3, _stream(47))
        assert out3.sum() == 7 and not np.any(out3[:19])

    def test_many_short_cells_stay_sealed(self):
        # 16 runs of 3 states, labels alternating, carried t steps by the
        # t-step matrix: each run is closed under restriction, so a row
        # that starts on one run keeps exact totals there at N = 1e7
        x = np.arange(48)
        walk = DiscreteNeighborWalk(-(((x - 20) / 10.0) ** 2))
        run = x // 3
        part = index_partition(run % 2)
        counts = _stream(49).multinomial(10**7, np.full(48, 1 / 48))
        totals = np.bincount(run, weights=counts).astype(np.int64)
        laws = np.zeros((16, 48))
        laws[run, x] = counts / totals[run]
        assert _takes_t_step(48, 40)
        out = walk.mutate_counts(laws, totals, 40, _stream(50), partition=part)
        assert out.dtype == np.int64 and out.sum() == 10**7 and np.all(out >= 0)
        assert np.array_equal(np.bincount(run, weights=out), totals)
        cells = run % 2
        assert np.array_equal(
            np.bincount(cells, weights=out), np.bincount(cells, weights=counts)
        )
        free = walk.mutate_counts(laws, totals, 40, _stream(51))
        assert free.sum() == 10**7 and np.all(free >= 0)
        assert not np.array_equal(  # unrestricted, the runs do exchange
            np.bincount(run, weights=free), totals
        )


    @pytest.mark.parametrize("t", [10**6, 2**62], ids=["1e6", "2**62"])
    def test_huge_t_reaches_each_cells_conditional(self, t):
        # the t-step matrix's row sums drift with t, past numpy's
        # multinomial tolerance and at 2**62 past float range; each row is
        # drawn normalised, from its cell's stationary conditional
        walk, labels = _two_basin(16)
        assert _takes_t_step(16, t)
        laws = np.zeros((2, 16))
        laws[0, 0] = laws[1, 15] = 1.0
        totals = np.array([400_000, 600_000])
        out = walk.mutate_counts(laws, totals, t, _stream(57),
                                 partition=index_partition(labels))
        for j, want in enumerate(_cell_laws(walk, labels)):
            got, cell = out[labels == j], want[labels == j]
            assert got.sum() == totals[j]
            chi2 = ((got - totals[j] * cell) ** 2 / (totals[j] * cell)).sum()
            assert stats.chi2.sf(chi2, cell.size - 1) > 1e-3


class TestCountStepChoice:
    """``mutate_counts`` carries its laws by the t-step matrix iff
    m^3 ceil(log2 t) <= _T_STEP_COST t, and otherwise by t banded steps;
    either way it draws each row's particles once."""

    @staticmethod
    def _spied(monkeypatch, walk):
        calls, laws = [], []

        def spy(name, inner):
            def call(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            return call

        multinomial_counts = kernels.multinomial_counts

        def draw(carried, totals, rng):
            laws.append(np.array(carried))
            return multinomial_counts(carried, totals, rng)

        monkeypatch.setattr(kernels, "_banded_laws", spy("banded", kernels._banded_laws))
        monkeypatch.setattr(kernels, "multinomial_counts", draw)
        walk.transition_matrix = spy("t-step", walk.transition_matrix)
        return calls, laws

    @pytest.mark.parametrize("extra,called", [(0, "t-step"), (1, "banded")],
                             ids=["at-edge", "past-edge"])
    def test_choice_at_the_cost_edge(self, monkeypatch, extra, called):
        # either route carries the cell laws to start @ P^t within 1e-12,
        # free and restricted, and restricted rows keep exact zeros
        t = 50
        m = _edge_m(t) + extra
        walk, labels = _two_basin(m)
        calls, laws = self._spied(monkeypatch, walk)
        start, totals = _cell_laws(walk, labels), np.array([400, 600])
        for part in (None, index_partition(labels)):
            out = walk.mutate_counts(start, totals, t, _stream(52), partition=part)
            assert out.sum() == totals.sum()
            P = _loop_transition_matrix(walk.log_mass)
            if part is not None:
                P = restrict_transition_matrix(P, labels)
                for j in (0, 1):
                    assert not np.any(laws[-1][j][labels != j])
            want = start @ np.linalg.matrix_power(P, t)
            assert np.allclose(laws[-1], want, rtol=0, atol=1e-12)
        assert calls == [called, called]

    def test_large_path_keeps_the_banded_draws(self, monkeypatch):
        # 512 states at t = 50 (the enum-counts shape) take the banded
        # steps, and draw each cell's particles once from the same stream
        walk, labels = _two_basin(512)
        part = index_partition(labels)
        calls, _ = self._spied(monkeypatch, walk)
        start, totals = _cell_laws(walk, labels), np.array([4 * 10**6, 6 * 10**6])
        got = walk.mutate_counts(start, totals, 50, _stream(54), partition=part)
        assert calls == ["banded"]
        carried = kernels._banded_laws(start, *walk.band(part), 50)
        gen = _stream(54)
        want = np.zeros(512, dtype=np.int64)
        for j in (0, 1):
            support = np.flatnonzero(carried[j] > 0)
            want[support] += gen.multinomial(totals[j], carried[j][support])
        assert np.array_equal(got, want)

    def test_spin_levels_take_the_t_step(self, monkeypatch):
        fam, part = ising_target(15, 1.0)
        walk = stage_kernel(fam.lumping.family, 7)
        calls, _ = self._spied(monkeypatch, walk)
        counts = np.full(16, 125, dtype=np.int64)
        _count_step(walk, counts, 50, _stream(55), partition=part.reduced)
        assert calls == ["t-step"]

    def test_draws_do_not_depend_on_t(self, monkeypatch):
        # the random calls of a count-path run, stage by stage and stream by
        # stream, are the same at t = 50 and t = 500 on the 512-state path:
        # one multinomial of the cell totals, then one a cell
        walk, labels = _two_basin(512)
        fam = index_family(walk.log_mass, betas=(0.2, 0.6, 1.0))
        part = index_partition(labels)
        calls = {}
        stream = rngmod.stream

        class Spy:
            def __init__(self, key, gen):
                self.key, self.gen = key, gen

            def __getattr__(self, name):
                method = getattr(self.gen, name)

                def call(*args, **kwargs):
                    calls[t].append((*self.key, name))
                    return method(*args, **kwargs)
                return call

        monkeypatch.setattr(
            rngmod, "stream", lambda seed, v, phase: Spy((v, phase), stream(seed, v, phase))
        )
        for t in (50, 500):
            calls[t] = []
            run(RunConfig(family=fam, partition=part, n_particles=10**5,
                          mutation_steps=t, seed=56))
        assert calls[50] == calls[500]
        mutate = [c for c in calls[50] if c[1] == rngmod.MUTATE]
        assert mutate == [(v, rngmod.MUTATE, "multinomial") for v in (1, 1, 2, 2)]


# ---------------------------------------------------------------------------
# The shared Metropolis driver against the per-kernel loops it replaced.


_BLOCK_ROWS = 1024  # the driver's fixed noise block


def _layout_draws(rng, n, t, draw):
    """The driver's stream layout: one key per block from rng, seeding an
    SFC64 generator per block, then at every step each block's
    ``draw(gen, rows)`` moves and then its uniforms. Yields each step's
    (moves, uniforms) over all n rows."""
    starts = range(0, n, _BLOCK_ROWS)
    keys = rng.integers(0, 2**64, size=(len(starts), 2), dtype=np.uint64)
    gens = [np.random.Generator(np.random.SFC64(k)) for k in keys]
    rows = [min(_BLOCK_ROWS, n - a) for a in starts]
    for _ in range(t):
        moves, u = [], []
        for gen, m in zip(gens, rows):
            moves.append(draw(gen, m))
            u.append(gen.random(m))
        yield np.concatenate(moves), np.concatenate(u)


def _ref_rwm(kernel, states, t, rng, cells, partition):
    """Reference: the random-walk loop, each step's noise before its uniforms."""
    x = np.array(states, dtype=float, copy=True)
    n = x.shape[0]
    lp = np.asarray(kernel.log_density(x), dtype=float)

    def normals(gen, m):
        return kernel.proposal_std * gen.standard_normal((m, kernel.dim))

    for noise, u in _layout_draws(rng, n, t, normals):
        y = x + noise
        lpy = np.asarray(kernel.log_density(y), dtype=float)
        acc = np.log(u) < (lpy - lp)
        if partition is not None:
            acc &= partition.classify(y) == cells
        x[acc] = y[acc]
        lp[acc] = lpy[acc]
    return x


def _ref_flip(kernel, states, t, rng, cells, partition):
    """Reference: the single-site flip loop, each step's sites before its uniforms."""
    x = np.array(states, copy=True)
    n = x.shape[0]
    lp = np.asarray(kernel.log_density(x), dtype=float)
    rows = np.arange(n)
    draws = _layout_draws(rng, n, t, lambda gen, m: gen.integers(0, kernel.dim, size=m))
    for sites, u in draws:
        y = x.copy()
        y[rows, sites] *= -1
        lpy = np.asarray(kernel.log_density(y), dtype=float)
        acc = np.log(u) < (lpy - lp)
        if partition is not None:
            acc &= partition.classify(y) == cells
        x[acc] = y[acc]
        lp[acc] = lpy[acc]
    return x


def _walk_dirs(gen, m):
    return gen.integers(0, 2, size=m) * 2 - 1


def _ref_walk(kernel, states, t, rng, cells, partition):
    """Reference: the neighbour-walk loop, refusing off-path moves by a mask."""
    x = np.array(states, dtype=np.int64, copy=True)
    n = x.shape[0]
    lm = kernel.log_mass
    for dirs, u in _layout_draws(rng, n, t, _walk_dirs):
        y = x + dirs
        valid = (y >= 0) & (y < lm.size)
        ysafe = np.where(valid, y, x)
        acc = valid & (np.log(u) < lm[ysafe] - lm[x])
        if partition is not None:
            acc &= partition.classify(ysafe) == cells
        x[acc] = ysafe[acc]
    return x


def _driver_case(name, n=301):
    gen = _stream(60)
    if name == "rwm":
        fam, part = gaussian_mixture_target(3)
        kernel = stage_kernel(fam, 2)
        return kernel, fam.sample_initial(n, gen), part, _ref_rwm
    if name == "flip":
        fam, part = ising_target(7, 1.0)
        kernel = stage_kernel(fam, 3)
        return kernel, fam.sample_initial(n, gen), part, _ref_flip
    walk, labels = _two_basin(12)
    x = np.concatenate([np.zeros(100), np.full(100, 11), np.arange(12).repeat(9)])
    if n > x.size:
        x = np.resize(x, n)
    return walk, x.astype(np.int64), index_partition(labels), _ref_walk


def _check_driver(name, restricted, workers, n=301):
    kernel, x, part, ref = _driver_case(name, n)
    cells = part.classify(x)
    part = part if restricted else None
    got = kernel.mutate(
        x, 12, _stream(61), cells=cells, partition=part, workers=workers
    )
    assert np.array_equal(got, ref(kernel, x, 12, _stream(61), cells, part))
    one = kernel.step(x, _stream(62), cells=cells, partition=part)
    assert np.array_equal(one, ref(kernel, x, 1, _stream(62), cells, part))


class TestMetropolisDriver:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("name", ["rwm", "flip", "walk"])
    def test_driver_equals_reference_loop(self, name, restricted, workers):
        _check_driver(name, restricted, workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("name", ["rwm", "flip", "walk"])
    def test_driver_equals_reference_across_block_edges(
        self, name, restricted, workers
    ):
        _check_driver(name, restricted, workers, n=2 * _BLOCK_ROWS + 301)

    def test_walk_off_path_proposals_stay_put(self):
        walk, _ = _two_basin(12)
        x = np.repeat(np.array([0, 11]), 500)
        moves, _ = next(_layout_draws(_stream(63), x.size, 1, _walk_dirs))
        out = walk.step(x, _stream(63))
        off = ((x == 0) & (moves < 0)) | ((x == 11) & (moves > 0))
        assert off.sum() > 400
        assert np.array_equal(out[off], x[off])
        assert np.all((out >= 0) & (out < 12))

    def test_block_noise_is_standard_normal(self):
        # a flat target accepts every move, so y - x is the raw noise; rows
        # 2049 fill blocks of 1024, 1024 and 1
        kernel = RandomWalkMetropolis(
            lambda x: np.zeros(x.shape[0]), proposal_std=0.7, dim=3
        )
        n = 2 * _BLOCK_ROWS + 1
        x = _stream(64).standard_normal((n, 3))
        z = (kernel.mutate(x, 1, _stream(65)) - x) / kernel.proposal_std
        assert stats.kstest(z.ravel(), "norm").pvalue > 1e-3
        for a in range(0, n, _BLOCK_ROWS):
            block = z[a:a + _BLOCK_ROWS]
            assert abs(block.mean()) < 5 / math.sqrt(block.size)


class TestRadialWalk:
    """The random walk on the Gaussian mixture's (s, r) rows."""

    @pytest.mark.parametrize("d", [2, 5, 50])
    def test_restricted_steps_keep_the_stage_law(self, d):
        # exact mu_v rows stay mu_v rows under restricted steps: two-sample
        # KS tests on s and on r against fresh exact rows, p > 0.001 each
        fam, part = gaussian_mixture_target(d)
        rows, reduced = fam.lumping.family, part.reduced
        v = len(fam.betas) // 2
        kernel = stage_kernel(rows, v)
        assert isinstance(kernel, RadialWalk)
        start = rows.sample_stage(v, 20_000, _stream(90 + d))
        out = kernel.mutate(start, 20, _stream(91), cells=reduced.classify(start),
                            partition=reduced)
        fresh = rows.sample_stage(v, 20_000, _stream(92 + d))
        assert np.array_equal(reduced.classify(out), reduced.classify(start))
        for col in (0, 1):
            assert stats.ks_2samp(out[:, col], fresh[:, col]).pvalue > 1e-3
        assert np.mean(out[:, 0] != start[:, 0]) > 0.2  # the chain moved

    def test_one_step_matches_the_d_dim_walk(self):
        # a flat target accepts every move: (s, r) of x + h g from one x,
        # against the radial step's law from that x's (s, r), by KS
        d, h, n = 6, 0.8, 20_000
        x0 = np.linspace(-1.0, 2.0, d)
        u = np.ones(d) / math.sqrt(d)
        s0 = x0 @ u
        z0 = np.array([s0, np.linalg.norm(x0 - s0 * u)])
        flat = lambda x: np.zeros(np.atleast_2d(x).shape[0])
        walk = RandomWalkMetropolis(flat, h, d).step(np.tile(x0, (n, 1)), _stream(93))
        radial = RadialWalk(flat, h, d).step(np.tile(z0, (n, 1)), _stream(94))
        s = walk @ u
        r = np.linalg.norm(walk - s[:, None] * u, axis=1)
        assert stats.ks_2samp(s, radial[:, 0]).pvalue > 1e-3
        assert stats.ks_2samp(r, radial[:, 1]).pvalue > 1e-3
