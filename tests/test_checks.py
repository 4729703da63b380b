import math

import numpy as np
import pytest

from modesmc import (
    DiscreteSpace,
    conditional_weight_identity,
    coupling_map,
    local_warmness_report,
    stage_weight_concentration,
    stage_kernel,
    tv_distance,
    warm_mixing_time,
    warm_mixing_times,
    warm_start_vertices,
)
from modesmc import rng as rngmod
from modesmc.kernels import (
    cell_submatrix,
    mixing_time_bound,
    restrict_transition_matrix,
    spectral_gap,
    transition_matrix,
)


def _stream(tag):
    return rngmod.stream(7117, tag, rngmod.REPLICATE)


class TestTVDistance:
    def test_identical(self):
        assert tv_distance([0.25, 0.75], [0.25, 0.75]) == 0.0

    def test_disjoint(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert math.isclose(tv_distance([0.5, 0.5], [0.8, 0.2]), 0.3, rel_tol=1e-15)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            tv_distance([0.5, 0.6], [0.5, 0.5])

    def test_mismatched_support_rejected(self):
        with pytest.raises(ValueError):
            tv_distance([1.0], [0.5, 0.5])


class TestCouplingMap:
    def test_equal_distributions_always_agree(self):
        f = np.array([0.3, 0.2, 0.5])
        pair = coupling_map(f, f, _stream(0), size=5_000)
        assert pair.equal.all()

    def test_disjoint_distributions_never_agree(self):
        f = np.array([1.0, 0.0])
        g = np.array([0.0, 1.0])
        pair = coupling_map(f, g, _stream(1), size=5_000)
        assert not pair.equal.any()

    def test_hand_case_marginals_and_disagreement(self):
        f = np.array([0.5, 0.5])
        g = np.array([0.8, 0.2])
        n = 1_000_000
        pair = coupling_map(f, g, _stream(2), size=n)
        tv = tv_distance(f, g)
        se = math.sqrt(tv * (1 - tv) / n)
        assert abs((1.0 - pair.equal.mean()) - tv) <= 3 * se
        for dist, draws in ((f, pair.primary), (g, pair.shadow)):
            freq = np.bincount(draws, minlength=2) / n
            ses = np.sqrt(dist * (1 - dist) / n)
            assert np.all(np.abs(freq - dist) <= 3 * ses)

    def test_mismatched_supports_rejected(self):
        with pytest.raises(ValueError):
            coupling_map(np.array([1.0]), np.array([0.5, 0.5]), _stream(3))

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            coupling_map(np.array([0.5, 0.6]), np.array([0.5, 0.5]), _stream(4))


class TestWarmStartVertices:
    def test_m_one_is_stationarity_itself(self):
        mu = np.array([0.2, 0.3, 0.5])
        verts = warm_start_vertices(mu, 1.0)
        assert verts.shape == (1, 3)
        assert np.allclose(verts[0], mu)

    def test_vertices_live_in_the_polytope(self):
        gen = _stream(5)
        for _ in range(20):
            m = int(gen.integers(2, 7))
            mu = gen.dirichlet(np.ones(m))
            M = float(gen.uniform(1.5, 8.0))
            verts = warm_start_vertices(mu, M)
            assert np.allclose(verts.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(verts <= M * mu + 1e-9)
            assert np.all(verts >= -1e-12)

    def test_cell_size_cap(self):
        with pytest.raises(ValueError):
            warm_start_vertices(np.full(21, 1 / 21), 7.0)

    def test_vertex_sup_dominates_feasible_starts(self):
        # the TV functional is convex, so its sup over the warm polytope is
        # attained at a vertex; check domination against random feasible
        # points produced by clip-and-redistribute projections
        from modesmc import DiscreteNeighborWalk

        gen = _stream(6)
        for _ in range(40):
            size = int(gen.integers(2, 7))
            mu = gen.dirichlet(np.ones(size))
            M = float(gen.uniform(1.2, 8.0))
            P = DiscreteNeighborWalk(np.log(gen.dirichlet(np.ones(size))))
            Pt = np.linalg.matrix_power(P.transition_matrix(), int(gen.integers(0, 6)))
            verts = warm_start_vertices(mu, M)
            sup_v = 0.5 * np.abs(verts @ Pt - mu).sum(axis=1).max()
            for _ in range(100):
                eta = gen.dirichlet(np.ones(size) * gen.uniform(0.3, 3.0))
                for _ in range(50):
                    eta = np.minimum(eta, M * mu)
                    deficit = 1.0 - eta.sum()
                    if deficit <= 1e-12:
                        break
                    room = M * mu - eta
                    eta = eta + deficit * room / room.sum()
                if abs(eta.sum() - 1.0) > 1e-9:
                    continue
                tv = 0.5 * np.abs(eta @ Pt - mu).sum()
                assert tv <= sup_v + 1e-10


class TestWarmMixingTime:
    def test_m_one_needs_no_steps(self):
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        mu = np.array([2 / 3, 1 / 3])
        assert warm_mixing_time(P, mu, 1.0, 1e-6) == 0

    def test_two_state_hand_iteration(self):
        # oracle: the 1-d warm polytope's endpoints, iterated directly
        P = np.array([[0.6, 0.4], [0.2, 0.8]])
        mu = np.array([1 / 3, 2 / 3])
        M, eps = 2.0, 1e-4
        lo = max(0.0, 1.0 - M * mu[1])
        hi = min(1.0, M * mu[0])
        endpoints = [np.array([e, 1.0 - e]) for e in (lo, hi)]
        tau_oracle = None
        for t in range(200):
            worst = max(0.5 * np.abs(e - mu).sum() for e in endpoints)
            if worst <= eps:
                tau_oracle = t
                break
            endpoints = [e @ P for e in endpoints]
        assert tau_oracle is not None
        assert warm_mixing_time(P, mu, M, eps) == tau_oracle

    def test_reference_family_within_gap_bound(self, space):
        for v in (1, 2, 3):
            base = stage_kernel(space.to_family(), v)
            R = restrict_transition_matrix(transition_matrix(base), space.labels)
            taus = warm_mixing_times(space, v, 7, 0.01)
            for j in (0, 1):
                sub = cell_submatrix(R, space.labels, j)
                gap = spectral_gap(sub, stationary=space.conditional(v, j))
                assert taus[j] <= mixing_time_bound(gap, 0.01, 7)


class TestLocalWarmness:
    def test_well_mixed_engine_is_nearly_exact(self, space):
        rows = local_warmness_report(
            space, n_particles=4_000, t=10, n_runs=60, seed=31
        )
        assert [r.stage for r in rows] == [1, 2, 3]
        for r in rows:
            assert r.ok and r.max_ratio < 1.2
            assert r.extinction_rate == 0.0

    def test_no_mutation_on_skewed_space_breaks_warmness(self):
        # One dominant state under mu_1 that a 30-particle uniform init
        # frequently misses entirely: with t = 0 the resampled conditional
        # then piles onto the wrong states, blowing up the singleton ratio.
        m, c = 40, 1e4
        base = np.log(np.concatenate([[c], np.ones(m - 1)]))
        space = DiscreteSpace.tempered(base, betas=(1e-9, 1.0), labels=np.zeros(m, int))
        rows = local_warmness_report(space, n_particles=30, t=0, n_runs=400, seed=33)
        p_absent = (1.0 - 1.0 / m) ** 30  # dominant state missing at init
        mu1_other = 1.0 / (c + m - 1)
        approx_ratio = p_absent / (m - 1) / mu1_other
        assert approx_ratio > 7  # the construction is sound
        assert rows[0].max_ratio > 7
        assert rows[0].max_ratio > 0.5 * approx_ratio

    def test_unvisited_cell_reports_infinity(self):
        base = np.array([0.0, 0.0, -40.0, -40.0])
        space = DiscreteSpace.tempered(base, betas=(0.5, 1.0), labels=[0, 0, 1, 1])
        rows = local_warmness_report(space, n_particles=5, t=2, n_runs=10, seed=35)
        assert rows[0].max_ratio == np.inf
        assert rows[0].extinction_rate == 1.0
        assert not rows[0].ok


class TestConditionalWeightIdentity:
    def test_reference_family_both_cells(self, space):
        rows = conditional_weight_identity(
            space, v=1, n_particles=2_000, t=25, n_runs=600, seed=41
        )
        tested = [r for r in rows if r.ok is not None]
        assert {r.cell for r in tested} == {0, 1}
        assert all(r.ok for r in tested)

    def test_single_cell_reduces_to_z_ratio(self):
        base = np.log([0.4, 0.1, 0.2, 0.3])
        space = DiscreteSpace.tempered(
            base, betas=(0.25, 0.5, 1.0), labels=np.zeros(4, int)
        )
        rows = conditional_weight_identity(
            space, v=1, n_particles=2_000, t=25, n_runs=400, seed=43
        )
        tested = [r for r in rows if r.ok is not None]
        z_ratio = math.exp(space.log_z(2) - space.log_z(1))
        assert all(r.ok for r in tested)
        assert all(np.isclose(r.predicted, z_ratio, atol=1e-12) for r in tested)

    def test_flat_adjacent_stages_reduce_to_resample_prob(self, space):
        base = np.log([0.4, 0.1, 0.2, 0.3])
        flat = DiscreteSpace.tempered(
            base, betas=(0.5, 1.0 - 1e-12, 1.0), labels=[0, 0, 1, 1]
        )
        rows = conditional_weight_identity(
            flat, v=1, n_particles=2_000, t=25, n_runs=400, seed=45
        )
        tested = [r for r in rows if r.ok is not None]
        assert all(r.ok for r in tested)
        # predicted reduces to the stratum's mean resampling probability
        per_cell = {}
        for r in tested:
            per_cell.setdefault(r.cell, 0.0)
            per_cell[r.cell] += r.predicted * r.n
        total = sum(r.n for r in tested if r.cell == 0)
        assert np.isclose(
            per_cell[0] / total + per_cell[1] / total, 1.0, atol=1e-6
        )

    def test_thin_strata_are_skipped(self, space):
        rows = conditional_weight_identity(
            space, v=1, n_particles=500, t=10, n_runs=40, seed=47
        )
        assert all(r.ok is None for r in rows)

    def test_stage_range_validated(self, space):
        with pytest.raises(ValueError):
            conditional_weight_identity(
                space, v=3, n_particles=100, t=5, n_runs=10, seed=49
            )


class TestConcentration:
    def test_reference_numbers(self, space):
        report = stage_weight_concentration(
            space, n_particles=1_000, lam=0.1, n_runs=10_000, seed=51
        )
        assert math.isclose(report.bound, 4.0 * math.exp(-5.0), rel_tol=1e-12)
        assert report.ok
        assert report.exceed_rate <= report.bound + 3 * report.binomial_se

    def test_lambda_at_range_width_never_exceeds(self, space):
        report = stage_weight_concentration(
            space, n_particles=50, lam=1.0, n_runs=5_000, seed=53
        )
        assert report.exceed_rate == 0.0

    def test_doubling_n_squares_the_bound_factor(self, space):
        r1 = stage_weight_concentration(space, 500, 0.1, 10, seed=55)
        r2 = stage_weight_concentration(space, 1_000, 0.1, 10, seed=55)
        assert np.isclose(r2.bound / 4.0, (r1.bound / 4.0) ** 2, rtol=1e-12)

    def test_weights_outside_range_rejected(self, space):
        with pytest.raises(ValueError):
            stage_weight_concentration(
                space, 100, 0.1, 10, seed=57, value_range=(0.0, 0.5)
            )
