import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from modesmc import (
    DiscreteSpace,
    InvalidStateError,
    analytic_catalog,
    bounds_table,
    gap_based_t_bound,
    gaussian_mixture_target,
    half_space_partition,
    ising_target,
    lambda_of,
    mutation_tv_target,
    overlap_discrete,
    overlap_lower_bound,
    overlap_monte_carlo,
    particle_bound,
    persistence,
    phi,
    phi_power_ok,
    random_tempered_space,
    reference_four_state,
)
from modesmc import rng as rngmod


class TestLambdaPhi:
    def test_hand_values(self):
        assert lambda_of(0.24, 1) == 0.01
        assert lambda_of(0.24, 2) == 0.005  # doubling V halves lambda

    def test_small_epsilon_limit(self):
        assert lambda_of(1e-9, 1) < 1e-10

    def test_phi_values(self):
        assert phi(0.0) == 1.0
        assert math.isclose(phi(1.0 / 3.0), 2.0, rel_tol=1e-15)

    def test_phi_rejects_unit_lambda(self):
        with pytest.raises(ValueError):
            phi(1.0)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            lambda_of(0.51, 1)
        with pytest.raises(ValueError):
            lambda_of(0.0, 1)

    def test_power_chain_trivial_at_zero(self):
        assert phi_power_ok(0.0, 3, 0.4)

    def test_power_chain_on_random_grid(self):
        gen = rngmod.stream(61, 0, rngmod.REPLICATE)
        for _ in range(100):
            eps = float(gen.uniform(0.01, 0.5))
            V = int(gen.integers(1, 40))
            lam = eps / (6.0 * V)
            assert all(phi_power_ok(lam, v, eps) for v in range(1, V + 1))


class TestParticleBound:
    def test_unit_inputs_fixture(self):
        # (1/0.25) * 3456 * log 64 = 57492.39..., strictly exceeded at 57493
        assert particle_bound(0.5, 1, 1, 1.0, 1.0, 1.0) == 57493

    def test_second_branch_dominates_for_many_cells(self):
        # p^2 log(1024 p^2) takes over at p = 200
        assert particle_bound(0.5, 1, 200, 1.0, 1.0, 1.0) == 2804498

    def test_doubling_w_quadruples_first_branch(self):
        lo = particle_bound(0.25, 4, 2, 1.0, 1.0, 0.5)
        hi = particle_bound(0.25, 4, 2, 2.0, 1.0, 0.5)
        assert abs(hi / lo - 4.0) < 1e-4  # quadratic in W before the ceiling

    def test_spin_model_quadratic_growth(self):
        # V = d, p = 2, mu* = 1/2, WZ = exp(alpha/2): doubling d roughly
        # quadruples the requirement (log factor shrinks the excess)
        def bound(d):
            return particle_bound(0.25, d, 2, math.exp(0.5), 1.0, 0.5)

        ratio = bound(512) / bound(256)
        assert abs(ratio - 4.0) <= 0.4

    def test_monotonicity_on_random_grid(self):
        gen = rngmod.stream(62, 0, rngmod.REPLICATE)
        for _ in range(100):
            eps = float(gen.uniform(0.05, 0.5))
            V = int(gen.integers(1, 20))
            p = int(gen.integers(1, 6))
            W = float(gen.uniform(0.2, 3.0))
            Z = float(gen.uniform(0.2, 3.0))
            mu = float(gen.uniform(0.05, 1.0))
            base = particle_bound(eps, V, p, W, Z, mu)
            assert particle_bound(eps, V + 1, p, W, Z, mu) >= base
            assert particle_bound(eps, V, p + 1, W, Z, mu) >= base
            assert particle_bound(eps, V, p, W * 1.5, Z, mu) >= base
            assert particle_bound(eps, V, p, W, Z * 1.5, mu) >= base
            assert particle_bound(eps, V, p, W, Z, min(1.0, mu * 1.5)) <= base
            assert particle_bound(max(1e-4, eps * 0.5), V, p, W, Z, mu) >= base

    def test_zero_mu_star_rejected(self):
        with pytest.raises(ValueError):
            particle_bound(0.25, 1, 1, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-160])
    def test_tiny_epsilon_past_float_range(self, epsilon):
        # epsilon**2 is 0, or N overflows, also from a numpy W (an enumerated
        # space's); either way an OverflowError, not a warning or a division
        with pytest.raises(OverflowError):
            particle_bound(epsilon, 4, 2, np.float64(1.0), 1.0, 0.5)

    def test_mutation_target(self):
        assert mutation_tv_target(0.5, 100, 10) == 0.5 / 16_000


class TestStepBound:
    def test_hand_value(self):
        # log 288 = 5.66... -> 6
        assert gap_based_t_bound(1, 1, 1.0, 1.0, 1.0) == 6

    def test_halving_gap_doubles_pre_ceiling(self):
        raw = math.log(288.0 * 50)
        assert gap_based_t_bound(50, 1, 1.0, 1.0, 0.5) == math.floor(raw / 0.5) + 1
        assert gap_based_t_bound(50, 1, 1.0, 1.0, 0.25) == math.floor(raw / 0.25) + 1

    def test_vanishing_persistence_guarded(self):
        with pytest.raises(ValueError):
            gap_based_t_bound(10, 2, 1e-200, 1e-200, 0.5)

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            gap_based_t_bound(10, 2, 1.0, 1.0, 0.0)


class TestPersistence:
    def test_constant_masses(self):
        assert persistence(np.full((4, 2), 0.5)) == 1.0

    def test_hand_table(self):
        table = [[0.5, 0.5], [0.4, 0.6], [0.5, 0.5]]
        assert math.isclose(persistence(table), 0.8, rel_tol=1e-15)

    def test_symmetric_spin_table(self):
        cat = analytic_catalog(__import__("modesmc").ising_target(7, 1.0)[0])
        assert persistence(cat.cell_mass_table()) == 1.0

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            persistence([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            persistence([[0.6, 0.5], [0.5, 0.5]])

    def test_lower_bounds_mu_star_on_random_tables(self):
        # The provable inequality is mu* >= gamma pi*; equality is attained
        # whenever the minimizing cell's mass path is unimodal (the product
        # then telescopes to exactly mu*/pi*), so strictness cannot be
        # asserted on random tables.
        gen = rngmod.stream(63, 0, rngmod.REPLICATE)
        ties = 0
        for _ in range(100):
            V = int(gen.integers(2, 7))
            p = int(gen.integers(2, 5))
            table = gen.dirichlet(np.full(p, 2.0), size=V + 1)
            gamma = persistence(table)
            mu_star = table.min()
            pi_star = table[-1].min()
            assert mu_star >= gamma * pi_star * (1.0 - 1e-12)
            ties += mu_star <= gamma * pi_star * (1.0 + 1e-12)
        assert ties > 0  # the tie case genuinely occurs


class TestOverlap:
    def test_identical_stages(self):
        space = DiscreteSpace(
            log_masses=np.log([[0.3, 0.7], [0.3, 0.7]]), labels=np.array([0, 1])
        )
        assert np.isclose(overlap_discrete(space), 1.0)

    def test_two_state_hand_value(self):
        space = DiscreteSpace(
            log_masses=np.log([[0.5, 0.5], [0.8, 0.2]]), labels=np.array([0, 1])
        )
        assert math.isclose(overlap_discrete(space), 0.4, rel_tol=1e-12)

    def test_floor_formula(self):
        assert overlap_lower_bound(2.0, 0.5, 0.25) == 0.5 * 0.5 * 0.25
        assert overlap_lower_bound(0.5, 0.5, 0.25) == 0.5 * 0.25

    def test_exact_overlap_respects_floor_on_random_spaces(self):
        gen = rngmod.stream(64, 0, rngmod.REPLICATE)
        for _ in range(20):
            space = random_tempered_space(gen)
            delta = overlap_discrete(space)
            table = space.cell_mass_table()
            floor = overlap_lower_bound(
                space.weight_bound() * space.z_ratio_bound(),
                persistence(table),
                space.pi_star(),
            )
            assert delta >= floor

    def test_monte_carlo_matches_quadrature_d1(self):
        fam, part = gaussian_mixture_target(1, betas=(0.5, 1.0))
        cat = analytic_catalog(fam)
        delta, se = overlap_monte_carlo(
            fam, part, cat, n_draws=200_000, rng=rngmod.stream(65, 0, 5)
        )

        # oracle: numerical integration of min(mu_0, mu_1) over each cell
        def q(x):
            if x > 0:
                return 0.5 * math.exp(-((x - 1.0) ** 2) / 2.0)
            return 0.5 * math.exp(-((x + 1.0) ** 2) / 2.0)

        z = {}
        for i, beta in enumerate(fam.betas):
            z[i] = quad(lambda x: q(x) ** beta, -30, 30, limit=200)[0]

        def integrand(x):
            return min(q(x) ** 0.5 / z[0], q(x) / z[1])

        best = np.inf
        masses = [cat.cell_probability(0), cat.cell_probability(1)]
        for j, (lo, hi) in enumerate(((0, 30), (-30, 0))):
            num = quad(integrand, lo, hi, limit=200)[0]
            best = min(best, num / max(masses[0][j], masses[1][j]))
        assert abs(delta - best) <= 4 * se + 1e-6

    def test_monte_carlo_draws_rows_where_the_partition_declares_them(self):
        fam, part = gaussian_mixture_target(5)
        cat = analytic_catalog(fam)
        calls = []  # stages the full family's sample_stage draws

        def sample_stage(v, n, rng):
            calls.append(v)
            return fam.sample_stage(v, n, rng)

        spied = dataclasses.replace(fam, sample_stage=sample_stage)
        rows = overlap_monte_carlo(
            spied, part, cat, n_draws=100_000, rng=rngmod.stream(66, 0, 5)
        )
        assert calls == []
        full = overlap_monte_carlo(
            spied, half_space_partition(), cat, n_draws=100_000,
            rng=rngmod.stream(67, 0, 5),
        )
        assert calls == list(range(fam.n_stages))
        assert abs(rows[0] - full[0]) <= 4 * math.hypot(rows[1], full[1])

    def test_monte_carlo_full_rows_past_float_range_raise(self):
        # d-dim draws at this centre square past float range; a partition
        # without a reduced form keeps them
        fam, _ = gaussian_mixture_target(3, nu=1.7577070741974516e181)
        with pytest.raises(InvalidStateError):
            overlap_monte_carlo(
                fam, half_space_partition(), analytic_catalog(fam),
                n_draws=100, rng=rngmod.stream(68, 0, 5),
            )

    def test_overlap_floor_on_spin_ladder(self):
        # symmetric spin ladder: gamma = 1, pi* = 1/2, ZW <= exp(alpha/2)
        import modesmc

        fam, _ = modesmc.ising_target(9, 1.0)
        cat = analytic_catalog(fam)
        gamma = persistence(cat.cell_mass_table())
        floor = overlap_lower_bound(math.exp(0.5), gamma, 0.5)
        space = modesmc.ising_space(9, 1.0, fam.betas)
        assert overlap_discrete(space) >= floor


def _truths():
    """The three exact references the CLI's bounds read, at d = 5."""
    gauss, _ = gaussian_mixture_target(5)
    spin, _ = ising_target(5, 1.0)
    return {
        "four_state": reference_four_state(),
        "gaussian_mixture": analytic_catalog(gauss),
        "ising": analytic_catalog(spin),
    }


class TestBoundsTable:
    def test_table_is_complete(self):
        for truth in _truths().values():
            out = bounds_table(truth, 0.25, min_gap=0.3)
            for key in ("lambda", "phi", "n_particles", "mutation_tv_target",
                        "warm_start_m", "t_from_gap", "gamma", "pi_star",
                        "overlap_floor"):
                assert key in out
            assert out["warm_start_m"] == 7
            # plain Python numbers, which YAML writes as they are
            assert all(type(v) in (int, float) for v in out.values())
            assert "t_from_gap" not in bounds_table(truth, 0.25)

    @pytest.mark.parametrize("name", ["four_state", "gaussian_mixture", "ising"])
    def test_matches_calculators_by_hand(self, name):
        truth = _truths()[name]
        W, Z = truth.weight_bound(), truth.z_ratio_bound()
        table = truth.cell_mass_table()
        n_stages, p = table.shape[0] - 1, table.shape[1]
        mu_star, pi_star = table.min(), table[-1].min()
        gamma = persistence(table)
        n = particle_bound(0.1, n_stages, p, W, Z, mu_star)
        out = bounds_table(truth, 0.1, min_gap=0.05)
        assert out["n_particles"] == n
        assert out["t_from_gap"] == gap_based_t_bound(
            n, n_stages, gamma, pi_star, 0.05
        )
        assert out["gamma"] == gamma and out["pi_star"] == pi_star
        assert out["overlap_floor"] == overlap_lower_bound(W * Z, gamma, pi_star)
        assert out["mutation_tv_target"] == mutation_tv_target(mu_star, n, n_stages)

    def test_symmetric_catalogs_by_hand(self):
        # both catalogs hold mass 1/2 in each cell: mu* = pi* = 1/2, gamma = 1
        truths = _truths()
        spin = bounds_table(truths["ising"], 0.1)
        assert spin["n_particles"] == particle_bound(0.1, 5, 2, math.exp(0.5), 1.0, 0.5)
        gauss = truths["gaussian_mixture"]
        assert gauss.weight_bound() == 1.0
        out = bounds_table(gauss, 0.25)
        assert (out["gamma"], out["pi_star"]) == (1.0, 0.5)
        assert out["n_particles"] == particle_bound(
            0.25, gauss.n_stages, 2, 1.0, gauss.z_ratio_bound(), 0.5
        )
