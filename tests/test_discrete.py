import math

import numpy as np
import pytest

from modesmc import DiscreteSpace, ising_space, random_tempered_space
from modesmc import rng as rngmod
from modesmc.discrete import enumerate_spins


class TestExactAnnealed:
    def test_uniform_two_cells(self):
        space = DiscreteSpace(
            log_masses=np.zeros((2, 4)), labels=np.array([0, 0, 1, 1])
        )
        assert np.allclose(space.cell_probs(0), [0.5, 0.5])
        assert np.allclose(space.conditional(0, 0), [0.5, 0.5])
        assert np.isclose(np.exp(space.log_z(0)), 4.0)

    def test_reference_target_stage_by_hand(self, space):
        # pi = (0.4, 0.1, 0.2, 0.3) with cells {0,1} and {2,3}
        assert np.allclose(space.cell_probs(3), [0.5, 0.5])
        assert np.allclose(space.conditional(3, 0), [0.8, 0.2])
        assert np.allclose(space.conditional(3, 1), [0.4, 0.6])
        assert np.isclose(np.exp(space.log_z(3)), 1.0)

    def test_flat_limit_gives_cardinality_fractions(self):
        base = np.log([0.4, 0.1, 0.2, 0.3])
        space = DiscreteSpace.tempered(base, betas=(1e-12, 1.0), labels=[0, 1, 1, 1])
        assert np.allclose(space.cell_probs(0), [0.25, 0.75], atol=1e-10)

    def test_all_stages_against_enumeration(self, space, oracle):
        for v in range(4):
            assert np.allclose(space.cell_probs(v), oracle["cell_probs"][v])
            assert np.isclose(np.exp(space.log_z(v)), oracle["zs"][v])
            assert np.allclose(space.stage_probs(v), oracle["probs"][v])

    def test_stage_weights_match_enumeration(self, space, oracle):
        for v in (1, 2, 3):
            expected = [
                p ** (oracle["betas"][v] - oracle["betas"][v - 1])
                for p in oracle["pi"]
            ]
            assert np.allclose(space.stage_weights(v), expected)

    def test_weight_and_z_bounds(self, space, oracle):
        # W = max_x pi(x)^0.25, Z = z_0/z_1 for this monotone ladder
        assert np.isclose(space.weight_bound(), 0.4**0.25)
        assert np.isclose(space.z_ratio_bound(), oracle["zs"][0] / oracle["zs"][1])


class TestValidation:
    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError):
            DiscreteSpace(log_masses=np.zeros((1, 3)), labels=np.array([0, 0, 2]))

    def test_state_cap(self):
        n = 10_001
        with pytest.raises(ValueError):
            DiscreteSpace(
                log_masses=np.zeros((1, n)),
                labels=np.zeros(n, dtype=int),
            )

    def test_nonfinite_masses_rejected(self):
        lm = np.zeros((2, 3))
        lm[1, 2] = -np.inf
        with pytest.raises(ValueError):
            DiscreteSpace(log_masses=lm, labels=np.array([0, 0, 1]))

    def test_to_family_requires_tempered(self):
        space = DiscreteSpace(log_masses=np.zeros((2, 2)), labels=np.array([0, 1]))
        with pytest.raises(ValueError):
            space.to_family()


class TestRandomSpaces:
    def test_sampled_spaces_are_wellformed(self):
        gen = rngmod.stream(5, 0, rngmod.REPLICATE)
        for _ in range(50):
            space = random_tempered_space(gen)
            betas = np.array(space.betas)
            assert np.all(np.diff(betas) > 0)
            assert betas[-1] == 1.0
            assert space.n_cells == 2
            assert all(space.cell_states(j).size > 0 for j in (0, 1))
            for v in range(space.n_stages + 1):
                assert np.isclose(space.stage_probs(v).sum(), 1.0)


class TestIsingSpace:
    def test_enumeration_matches_binomial_sums(self):
        d, alpha = 5, 1.2
        space = ising_space(d, alpha, betas=(0.5, 1.0))
        # oracle: mass of spin sum s = d - 2k is C(d, k) exp(beta a s^2 / 2d)
        for v, beta in enumerate(space.betas):
            z = sum(
                math.comb(d, k) * math.exp(beta * alpha / (2 * d) * (d - 2 * k) ** 2)
                for k in range(d + 1)
            )
            assert np.isclose(np.exp(space.log_z(v)), z)
            assert np.allclose(space.cell_probs(v), [0.5, 0.5])

    def test_spin_enumeration_shape(self):
        spins = enumerate_spins(3)
        assert spins.shape == (8, 3)
        assert set(np.unique(spins)) == {-1, 1}
        assert np.unique(spins, axis=0).shape[0] == 8
