import numpy as np
import pytest

from modesmc import (
    gaussian_mixture_target,
    ising_space,
    ising_target,
    mode_crossing_report,
    overlap_discrete,
    pt_run,
    random_tempered_space,
    reference_four_state,
    st_run,
    tv_distance,
)
from modesmc import rng as rngmod


# ---------------------------------------------------------------------------
# Reference loops: the scalar per-family loops that served enumerated spaces
# before one blocked loop served every family. Kept verbatim in substance
# (same draws, same arithmetic) so the blocked loops can be checked bit for
# bit on enumerated families.


def reference_pt_index(family, n_sweeps, seed, block=8192):
    lm_base = family.index_log_mass
    n_states = lm_base.size
    betas = np.asarray(family.betas)
    n_temps = betas.size
    lm = betas[:, None] * lm_base[None, :]
    init = rngmod.stream(seed, 0, rngmod.INIT)
    chains = np.array([family.sample_initial(1, init)[0] for _ in range(n_temps)])
    attempts = np.zeros(n_temps - 1, dtype=np.int64)
    accepts = np.zeros(n_temps - 1, dtype=np.int64)
    counts = np.zeros((n_temps, n_states), dtype=np.int64)
    trace = np.empty(n_sweeps, dtype=np.int64)
    gen = rngmod.stream(seed, 0, rngmod.CHAIN)
    sgen = rngmod.stream(seed, 0, rngmod.SWAP)
    rows = np.arange(n_temps)
    done = 0
    while done < n_sweeps:
        b = min(block, n_sweeps - done)
        dirs = gen.integers(0, 2, size=(b, n_temps)) * 2 - 1
        logu = np.log(gen.random((b, n_temps)))
        pair = sgen.integers(0, n_temps - 1, size=b)
        slogu = np.log(sgen.random(b))
        for s in range(b):
            y = chains + dirs[s]
            valid = (y >= 0) & (y < n_states)
            ysafe = np.where(valid, y, chains)
            acc = valid & (logu[s] < lm[rows, ysafe] - lm[rows, chains])
            chains = np.where(acc, ysafe, chains)
            k = pair[s]
            attempts[k] += 1
            dlog = (betas[k + 1] - betas[k]) * (
                lm_base[chains[k]] - lm_base[chains[k + 1]]
            )
            if slogu[s] < dlog:
                chains[k], chains[k + 1] = chains[k + 1], chains[k]
                accepts[k] += 1
            counts[rows, chains] += 1
            trace[done + s] = chains[-1]
        done += b
    return chains, attempts, accepts, counts, trace


def reference_st_index(family, n_sweeps, seed, log_pseudo, block=8192):
    lm_base = family.index_log_mass
    n_states = lm_base.size
    betas = family.betas
    n_temps = len(betas)
    init = rngmod.stream(seed, 0, rngmod.INIT)
    x = int(family.sample_initial(1, init)[0])
    k = 0
    gen = rngmod.stream(seed, 0, rngmod.CHAIN)
    temp_counts = np.zeros(n_temps, dtype=np.int64)
    marginal = np.zeros((n_temps, n_states), dtype=np.int64)
    trace = np.empty(n_sweeps, dtype=np.int64)
    done = 0
    while done < n_sweeps:
        b = min(block, n_sweeps - done)
        dirs = gen.integers(0, 2, size=b) * 2 - 1
        logu1 = np.log(gen.random(b))
        jumps = gen.integers(0, 2, size=b) * 2 - 1
        logu2 = np.log(gen.random(b))
        for s in range(b):
            y = x + int(dirs[s])
            if 0 <= y < n_states and logu1[s] < betas[k] * (lm_base[y] - lm_base[x]):
                x = y
            kp = k + int(jumps[s])
            if 0 <= kp < n_temps:
                dlog = (betas[kp] - betas[k]) * lm_base[x] + (
                    log_pseudo[kp] - log_pseudo[k]
                )
                if logu2[s] < dlog:
                    k = kp
            temp_counts[k] += 1
            marginal[k, x] += 1
            trace[done + s] = k
        done += b
    return x, k, temp_counts, marginal, trace


def _enumerated_spaces():
    gen = rngmod.stream(606, 0, rngmod.REPLICATE)
    return [random_tempered_space(gen) for _ in range(3)]


IDENTITY_SWEEPS = 20_001  # crosses the 8192-sweep block edge twice


class TestMatchesReferenceLoops:
    @pytest.fixture(params=["four_state", "random-0", "random-1", "random-2"])
    def family(self, request, space):
        if request.param == "four_state":
            return space.to_family()
        return _enumerated_spaces()[int(request.param[-1])].to_family()

    def test_pt_identical(self, family):
        chains, attempts, accepts, counts, trace = reference_pt_index(
            family, IDENTITY_SWEEPS, seed=17
        )
        r = pt_run(family, IDENTITY_SWEEPS, seed=17, record_target_trace=True)
        assert np.array_equal(r.states, chains)
        assert np.array_equal(r.swap_attempts, attempts)
        assert np.array_equal(r.swap_accepts, accepts)
        assert np.array_equal(r.marginal_counts, counts)
        assert np.array_equal(r.target_trace, trace)
        assert r.target_trace.dtype == trace.dtype

    def test_st_identical(self, family):
        gen = rngmod.stream(18, 0, rngmod.REPLICATE)
        log_pseudo = gen.normal(0.0, 0.5, size=len(family.betas))
        x, k, temp_counts, marginal, trace = reference_st_index(
            family, IDENTITY_SWEEPS, 19, log_pseudo
        )
        r = st_run(family, IDENTITY_SWEEPS, 19, log_pseudo, record_temp_trace=True)
        assert np.array_equal(r.state, [x])
        assert r.temp == k
        assert np.array_equal(r.temp_counts, temp_counts)
        assert np.array_equal(r.marginal_counts, marginal)
        assert np.array_equal(r.temp_trace, trace)


class TestPTMarginals:
    def test_exact_marginals_on_reference(self, space):
        result = pt_run(space.to_family(), 1_000_000, seed=2024)
        marg = result.marginal_counts / result.marginal_counts.sum(
            axis=1, keepdims=True
        )
        for v in range(space.n_stages + 1):
            assert tv_distance(marg[v], space.stage_probs(v)) <= 0.02

    def test_swap_acceptance_above_overlap_floor(self, space):
        # stationary swap probability >= (sum_x min(mu_v, mu_{v+1}))^2 >= delta^2
        result = pt_run(space.to_family(), 200_000, seed=7)
        floor = overlap_discrete(space) ** 2
        assert np.all(result.swap_acceptance >= floor)

    def test_deterministic_given_seed(self, space):
        a = pt_run(space.to_family(), 10_000, seed=5)
        b = pt_run(space.to_family(), 10_000, seed=5)
        assert np.array_equal(a.marginal_counts, b.marginal_counts)
        assert np.array_equal(a.swap_accepts, b.swap_accepts)


def _families():
    return {
        "index": reference_four_state().to_family(),
        "spin": ising_target(5, 1.0)[0],
        "real": gaussian_mixture_target(3)[0],
    }


class TestEveryFamily:
    @pytest.mark.parametrize("kind", ["index", "spin", "real"])
    def test_pt_one_swap_attempt_per_sweep(self, kind):
        family = _families()[kind]
        result = pt_run(family, 500, seed=12, record_target_trace=True)
        assert result.swap_attempts.sum() == 500
        assert result.states.shape[0] == len(family.betas)
        assert result.target_trace.shape[0] == 500

    @pytest.mark.parametrize("kind", ["index", "spin", "real"])
    def test_st_moves_state_and_temperature(self, kind):
        family = _families()[kind]
        result = st_run(
            family, 500, seed=36, log_pseudo=np.zeros(len(family.betas)),
            record_temp_trace=True,
        )
        assert result.temp_counts.sum() == 500
        assert len(set(result.temp_trace.tolist())) > 1
        assert result.state.shape[0] == 1

    def test_zero_sweeps(self):
        family, part = ising_target(5, 1.0)
        result = pt_run(family, 0, seed=1, record_target_trace=True)
        assert result.swap_attempts.sum() == 0
        report = mode_crossing_report(result.target_trace, part)
        assert report.crossings_per_sweep == 0.0
        assert report.occupancy.size == 0
        st = st_run(family, 0, seed=1, log_pseudo=np.zeros(len(family.betas)))
        assert st.temp_counts.sum() == 0 and st.temp == 0


class TestExactSpinLaw:
    """Checks against the enumerated 2**5-state spin model (`ising_space`)."""

    D, ALPHA = 5, 2.0

    def _space(self):
        family, _ = ising_target(self.D, self.ALPHA)
        return family, ising_space(self.D, self.ALPHA, family.betas)

    def test_pt_target_magnetisation_law(self):
        family, space = self._space()
        result = pt_run(family, 60_000, seed=51, record_target_trace=True)
        levels = result.target_trace.sum(axis=1).astype(int)
        freq = np.bincount((levels + self.D) // 2, minlength=self.D + 1) / levels.size
        spins_sum = np.array([bin(i).count("1") for i in range(2**self.D)])
        exact = np.bincount(
            spins_sum, weights=space.stage_probs(space.n_stages), minlength=self.D + 1
        )
        assert tv_distance(freq, exact) <= 0.03

    def test_st_exact_pseudo_priors_give_uniform_levels(self):
        family, space = self._space()
        lz = np.array([space.log_z(v) for v in range(space.n_stages + 1)])
        result = st_run(family, 60_000, seed=53, log_pseudo=-lz)
        occ = result.temp_counts / result.temp_counts.sum()
        assert np.max(np.abs(occ - 1.0 / occ.size)) < 0.03


class TestST:
    def test_exact_pseudo_priors_level_occupancy(self, space):
        lz = np.array([space.log_z(v) for v in range(space.n_stages + 1)])
        result = st_run(space.to_family(), 400_000, seed=31, log_pseudo=-(lz - lz[0]))
        occ = result.temp_counts / result.temp_counts.sum()
        assert np.max(np.abs(occ - 0.25)) < 0.02
        marg = result.marginal_counts[-1] / result.marginal_counts[-1].sum()
        assert tv_distance(marg, space.stage_probs(space.n_stages)) <= 0.02

    def test_misspecified_priors_skew_occupancy(self, space):
        lz = np.array([space.log_z(v) for v in range(space.n_stages + 1)])
        log_pseudo = -(lz - lz[0])
        log_pseudo[2] += 2.0  # overweight temperature 2
        result = st_run(space.to_family(), 200_000, seed=33, log_pseudo=log_pseudo)
        occ = result.temp_counts / result.temp_counts.sum()
        assert occ[2] > occ.max(initial=0, where=np.arange(4) != 2) * 1.5

    def test_single_stage_reduces_to_plain_mcmc(self):
        from modesmc import index_family

        base = np.log([0.4, 0.1, 0.2, 0.3])
        fam = index_family(base, betas=(1.0,))
        result = st_run(fam, 300_000, seed=35, log_pseudo=np.zeros(1))
        assert result.temp_counts[0] == 300_000
        marg = result.marginal_counts[0] / result.marginal_counts[0].sum()
        assert tv_distance(marg, np.exp(base)) <= 0.02

    def test_pseudo_prior_shape_validated(self, space):
        with pytest.raises(ValueError):
            st_run(space.to_family(), 10, seed=1, log_pseudo=np.zeros(2))


class TestModeCrossing:
    def test_confined_trace_has_no_crossings(self):
        fam, part = ising_target(5, 1.0)
        trace = np.ones((100, 5), dtype=np.int8)
        report = mode_crossing_report(trace, part)
        assert report.crossings_per_sweep == 0.0
        assert report.occupancy[0] == 1.0

    def test_symmetric_spin_pt_target_occupancy(self):
        fam, part = ising_target(5, 1.0)
        result = pt_run(fam, 20_000, seed=41, record_target_trace=True)
        report = mode_crossing_report(result.target_trace, part)
        assert report.crossings_per_sweep > 0.0
        assert abs(report.occupancy[0] - 0.5) < 0.15
