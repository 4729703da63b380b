import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare, ks_2samp, kstest, norm

from conftest import assert_same_run, same_bits
from modesmc import (
    DiscreteSpace,
    InvalidStateError,
    Partition,
    RunConfig,
    WeightCollapseError,
    cell_tracking_error,
    estimate,
    gaussian_mixture_target,
    index_family,
    index_partition,
    ising_space,
    ising_target,
    run,
    stage_kernel,
    tv_distance,
)
import modesmc.engine
from modesmc import kernels
from modesmc import analytic_catalog
from modesmc import rng as rngmod
from modesmc.engine import COUNT_PATH_MAX_STATES, _resample


def _cfg(space, **kw):
    args = dict(
        family=space.to_family(),
        partition=space.to_partition(),
        n_particles=kw.pop("n", 2000),
        mutation_steps=kw.pop("t", 20),
        seed=kw.pop("seed", 1),
    )
    args.update(kw)
    return RunConfig(**args)


def _take_path(monkeypatch, mode):
    """Run index families and the spin model's levels on the count path, or
    force the particle path."""
    limit = 0 if mode == "particles" else COUNT_PATH_MAX_STATES
    monkeypatch.setattr(modesmc.engine, "COUNT_PATH_MAX_STATES", limit)


def _initial(cfg):
    """The run's initial draw: N i.i.d. stage-0 states and their cells."""
    gen = rngmod.stream(cfg.seed, 0, rngmod.INIT)
    states = cfg.family.sample_initial(cfg.n_particles, gen)
    return states, cfg.partition.classify(states)


class TestInitialize:
    def test_uniform_spins_chi_square(self):
        fam, part = ising_target(3, 1.0)
        cfg = RunConfig(family=fam, partition=part, n_particles=100_000,
                        mutation_steps=0, seed=11)
        states, _ = _initial(cfg)
        idx = ((states > 0) << np.arange(3)).sum(axis=1)
        counts = np.bincount(idx, minlength=8)
        assert chisquare(counts).pvalue > 0.01
        se = math.sqrt((1 / 8) * (7 / 8) / cfg.n_particles)
        assert np.all(np.abs(counts / cfg.n_particles - 1 / 8) <= 3 * se)

    def test_fixed_seed_bit_identical(self):
        fam, part = gaussian_mixture_target(3)
        cfg = RunConfig(family=fam, partition=part, n_particles=5_000,
                        mutation_steps=0, seed=99)
        (a, a_cells), (b, b_cells) = _initial(cfg), _initial(cfg)
        assert np.array_equal(a, b)
        assert np.array_equal(a_cells, b_cells)

    def test_gaussian_occupancy_matches_catalog(self):
        fam, part = gaussian_mixture_target(2)
        cat = analytic_catalog(fam)
        cfg = RunConfig(family=fam, partition=part, n_particles=100_000,
                        mutation_steps=0, seed=5)
        _, cells = _initial(cfg)
        occ = np.bincount(cells, minlength=2) / cfg.n_particles
        expected = cat.cell_probability(0)
        se = math.sqrt(0.25 / cfg.n_particles)
        assert np.all(np.abs(occ - expected) <= 4 * se)

    def test_gaussian_projection_ks(self):
        # oracle: explicit cdf of the projected tempered mixture
        d = 2
        fam, part = gaussian_mixture_target(d)
        beta = fam.betas[0]
        m, sd = math.sqrt(d), 1.0 / math.sqrt(beta)
        tail = norm.cdf(-m / sd)

        def cdf_pos(s):  # cdf of the positive truncated component
            return (norm.cdf((s - m) / sd) - tail) / (1.0 - tail)

        def cdf(s):
            s = np.asarray(s, dtype=float)
            out = np.where(s > 0, 0.5 + 0.5 * cdf_pos(np.abs(s)),
                           0.5 * (1.0 - cdf_pos(np.abs(s))))
            return out

        cfg = RunConfig(family=fam, partition=part, n_particles=100_000,
                        mutation_steps=0, seed=21)
        states, _ = _initial(cfg)
        s = states.sum(axis=1) / math.sqrt(d)
        assert kstest(s, cdf).pvalue > 0.01


def _resample_weights(states, cells, w, gen, part):
    """The engine's stage-1 resampling step on particle weights w (not log)."""
    with np.errstate(divide="ignore"):
        logw = np.log(np.asarray(w, dtype=float))
    (states, cells), diag = _resample(
        1, states.shape[0], logw, states, cells, None, gen, part.n_cells
    )
    return states, cells, None, diag


class TestResample:
    def _population(self, n):
        states = np.arange(n)
        part = index_partition(np.zeros(n, dtype=int))
        return states, part.classify(states), part

    def test_equal_weights_multinomial_chi_square(self):
        n, reps = 1000, 1000
        states, cells, part = self._population(n)
        total = np.zeros(n)
        gen = rngmod.stream(3, 0, rngmod.REPLICATE)
        for _ in range(reps):
            out, *_ = _resample_weights(states, cells, np.ones(n), gen, part)
            total += np.bincount(out, minlength=n)
        assert chisquare(total).pvalue > 0.01

    def test_single_heavy_particle_takes_over(self):
        states, cells, part = self._population(5)
        w = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        out, _, _, diag = _resample_weights(states, cells, w,
                                            rngmod.stream(4, 0, 5), part)
        assert np.all(out == 2)
        assert diag.occupancy_after[0] == 5

    def test_two_to_one_weight_frequency(self):
        states, cells, part = self._population(3)
        gen = rngmod.stream(5, 0, rngmod.REPLICATE)
        picks = 0
        reps = 4000
        for _ in range(reps):
            out, *_ = _resample_weights(states, cells, np.array([2.0, 1.0, 1.0]),
                                        gen, part)
            picks += (out == 0).sum()
        freq = picks / (3 * reps)
        se = math.sqrt(0.25 / (3 * reps))
        assert abs(freq - 0.5) <= 4 * se

    def test_all_zero_weights_collapse(self):
        states, cells, part = self._population(4)
        with pytest.raises(WeightCollapseError) as err:
            _resample_weights(states, cells, np.zeros(4), rngmod.stream(6, 0, 5), part)
        assert err.value.stage == 1

    def test_diagnostics_fields(self, space):
        fam, part = space.to_family(), space.to_partition()
        states = np.array([0, 1, 2, 3] * 25)
        cells = part.classify(states)
        w = fam.log_weight(1, states)
        _, _, _, diag = _resample_weights(states, cells, np.exp(w),
                                          rngmod.stream(8, 0, 5), part)
        assert np.isclose(diag.resample_probs.sum(), 1.0, atol=1e-12)
        assert diag.occupancy_before.sum() == 100
        assert diag.occupancy_after.sum() == 100
        # w_hat agrees with the direct average of weights per cell
        for j in (0, 1):
            mask = cells == j
            assert np.isclose(diag.cell_weight_sums[j],
                              np.exp(w[mask]).sum() / 100)


class TestResampleCounts:
    """The count branch: ``counts`` set, one log mass per state's count."""

    def _draw(self, space, n, counts):
        fam, part = space.to_family(), space.to_partition()
        states = np.arange(space.n_states)
        with np.errstate(divide="ignore"):
            log_mass = fam.log_weight(2, states) + np.log(counts)
        return _resample(2, n, log_mass, states, part.classify(states),
                         np.asarray(counts), rngmod.stream(30, 2, rngmod.RESAMPLE),
                         part.n_cells)

    def test_counts_and_occupancies_sum_to_n(self, space):
        # the draw is the cell totals, with each cell's share of the
        # resampling law: a law on the cell's occupied states
        n = 1_000
        for counts in ([250, 250, 250, 250], [0, 1_000, 0, 0], [1, 0, 0, 999]):
            (laws, totals), diag = self._draw(space, n, counts)
            assert laws.shape == (2, space.n_states) and totals.sum() == n
            assert np.array_equal(diag.occupancy_after, totals)
            for j in (0, 1):
                if totals[j]:
                    assert math.isclose(laws[j].sum(), 1.0, rel_tol=1e-12)
                assert not np.any(laws[j][space.labels != j])
            assert not np.any(laws[:, np.asarray(counts) == 0])
            assert diag.occupancy_before.sum() == n
            assert np.array_equal(diag.occupancy_before,
                                  np.bincount(space.labels, weights=counts,
                                              minlength=2))

    def test_occupancy_before_exact_near_2_62(self, space):
        # per-cell int64 sums of counts summing to 5 * 2**60, against the
        # per-state scatter-add; float64 sums would drop the low bits
        counts = np.array([2**60 + 3, 2**61 - 1, 2**60 + 7, 2**60 - 5])
        n = int(counts.sum())
        _, diag = self._draw(space, n, counts)
        want = np.zeros(2, dtype=np.int64)
        np.add.at(want, space.labels, counts)
        assert same_bits(diag.occupancy_before, want)
        assert int(diag.occupancy_before.sum()) == n
        floats = np.bincount(space.labels, weights=counts).astype(np.int64)
        assert not np.array_equal(floats, want)

    def test_all_minus_inf_collapses_with_stage(self, space):
        part = space.to_partition()
        states = np.arange(space.n_states)
        with pytest.raises(WeightCollapseError) as err:
            _resample(3, 100, np.full(space.n_states, -np.inf), states,
                      part.classify(states), np.array([25, 25, 25, 25]),
                      rngmod.stream(31, 3, rngmod.RESAMPLE), part.n_cells)
        assert err.value.stage == 3


class TestMutate:
    def test_zero_steps_is_identity(self, space):
        fam, part = space.to_family(), space.to_partition()
        states = np.array([0, 1, 2, 3])
        kernel = stage_kernel(fam, 1)
        out = kernel.mutate(states, 0, rngmod.stream(9, 0, 5),
                            cells=part.classify(states), partition=part)
        assert np.array_equal(out, states)

    def test_cells_invariant(self):
        fam, part = gaussian_mixture_target(3)
        cfg = RunConfig(family=fam, partition=part, n_particles=3_000,
                        mutation_steps=0, seed=31)
        states, cells = _initial(cfg)
        kernel = stage_kernel(fam, 1)
        out = kernel.mutate(states, 15, rngmod.stream(10, 0, 5), cells=cells,
                            partition=part)
        assert np.array_equal(part.classify(out), cells)

    def test_within_cell_law_reaches_conditional(self, space):
        # point starts, 50 restricted steps, compare to exact conditionals
        fam, part = space.to_family(), space.to_partition()
        n = 100_000
        states = np.concatenate([np.zeros(n // 2), np.full(n // 2, 2)]).astype(int)
        kernel = stage_kernel(fam, 3)
        out = kernel.mutate(states, 50, rngmod.stream(11, 0, 5),
                            cells=part.classify(states), partition=part)
        for j, members in ((0, [0, 1]), (1, [2, 3])):
            got = np.bincount(out, minlength=4)[members]
            emp = got / got.sum()
            assert tv_distance(emp, space.conditional(3, j)) < 0.02

    def test_restricted_rwm_preserves_truncated_law(self):
        # start from the exact half-space conditional; a long restricted
        # random-walk run must keep the projected mean at the truncated
        # normal's value
        from scipy.stats import truncnorm

        d = 2
        fam, part = gaussian_mixture_target(d)
        beta = fam.betas[-1]
        gen = rngmod.stream(12, 0, 5)
        x = fam.sample_stage(fam.n_stages, 1_500, gen)
        keep = x.sum(axis=1) > 0  # one cell only
        x = x[keep]
        kernel = stage_kernel(fam, fam.n_stages)
        out = kernel.mutate(x, 400, rngmod.stream(13, 0, 5),
                            cells=part.classify(x), partition=part)
        s = out.sum(axis=1) / math.sqrt(d)
        m, sd = math.sqrt(d), 1.0 / math.sqrt(beta)
        ref = truncnorm(a=-m / sd, b=np.inf, loc=m, scale=sd)
        # generous allowance: restricted-chain samples are autocorrelated
        assert abs(s.mean() - ref.mean()) < 8 * ref.std() / math.sqrt(s.size)


class TestRun:
    def test_no_stages_edge(self):
        fam = index_family(np.log([0.25, 0.75]), betas=(1.0,))
        part = index_partition(np.array([0, 1]))
        report = run(RunConfig(family=fam, partition=part, n_particles=500,
                               mutation_steps=5, seed=2))
        assert report.diagnostics == []
        assert report.log_z == 0.0
        assert report.final_states.shape == (500,)

    def test_worker_count_invariance_spin(self):
        fam, part = ising_target(5, 1.0)
        reports = [
            run(RunConfig(family=fam, partition=part, n_particles=2_000,
                          mutation_steps=10, seed=77, workers=w))
            for w in (1, 8)
        ]
        assert np.array_equal(reports[0].final_states, reports[1].final_states)
        for a, b in zip(reports[0].diagnostics, reports[1].diagnostics):
            assert np.array_equal(a.resample_probs, b.resample_probs)
            assert a.log_z_increment == b.log_z_increment

    def test_worker_count_invariance_real(self):
        fam, part = gaussian_mixture_target(3)
        reports = [
            run(RunConfig(family=fam, partition=part, n_particles=1_500,
                          mutation_steps=12, seed=78, workers=w))
            for w in (1, 6)
        ]
        assert np.array_equal(reports[0].final_states, reports[1].final_states)

    def test_count_path_deterministic(self, space):
        a = run(_cfg(space, seed=5))
        b = run(_cfg(space, seed=5))
        assert np.array_equal(a.final_states, b.final_states)
        assert a.log_z == b.log_z

    @pytest.mark.parametrize("restricted", [True, False])
    @pytest.mark.parametrize("path", ["counts", "particles"])
    def test_final_cells_classify_final_states(self, space, path, restricted,
                                               monkeypatch):
        _take_path(monkeypatch, path)
        report = run(_cfg(space, seed=6, restricted=restricted))
        cells = space.to_partition().classify(report.final_states)
        assert report.final_cells.dtype == cells.dtype
        assert np.array_equal(report.final_cells, cells)

    @pytest.mark.parametrize("problem", ["spin5", "gauss3"])
    def test_unrestricted_particle_cells_reclassified(self, problem):
        # unrestricted mutation crosses cells, so the labels must follow it
        fam, part = ising_target(5, 1.0) if problem == "spin5" else gaussian_mixture_target(3)
        report = run(RunConfig(family=fam, partition=part, n_particles=1_000,
                               mutation_steps=10, seed=6, restricted=False))
        cells = part.classify(report.final_states)
        assert report.final_cells.dtype == cells.dtype
        assert np.array_equal(report.final_cells, cells)

    @pytest.mark.parametrize("extra,called", [(0, "mutate_counts"), (1, "mutate")],
                             ids=["at-cap", "past-cap"])
    def test_representation_switch_at_state_cap(self, monkeypatch, extra, called):
        # index families of at most COUNT_PATH_MAX_STATES states take the
        # count path, and one state more takes the particle path
        calls = []

        def spy(name, inner):
            def call(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            return call

        def spying_kernel(*args, **kwargs):
            kernel = stage_kernel(*args, **kwargs)
            kernel.mutate = spy("mutate", kernel.mutate)
            kernel.mutate_counts = spy("mutate_counts", kernel.mutate_counts)
            return kernel

        monkeypatch.setattr("modesmc.engine.stage_kernel", spying_kernel)
        m = COUNT_PATH_MAX_STATES + extra
        fam = index_family(np.zeros(m), betas=(0.5, 1.0))
        part = index_partition((np.arange(m) >= m // 2).astype(int))
        report = run(RunConfig(family=fam, partition=part, n_particles=20,
                               mutation_steps=1, seed=4))
        assert calls == [called]
        assert report.final_states.shape == (20,)

    def test_count_and_particle_paths_share_law(self, space, monkeypatch):
        # same config through both engines: per-stage mean resampling
        # probabilities agree within Monte Carlo error
        seeds = range(40)
        means = {}
        for mode in ("counts", "particles"):
            _take_path(monkeypatch, mode)
            probs = [
                run(_cfg(space, n=2_000, t=10, seed=rngmod.substream_seed(13, s)))
                .diagnostics[-1].resample_probs[0]
                for s in seeds
            ]
            means[mode] = (np.mean(probs), np.std(probs, ddof=1) / math.sqrt(len(probs)))
        gap = abs(means["counts"][0] - means["particles"][0])
        se = math.hypot(means["counts"][1], means["particles"][1])
        assert gap <= 4 * se

    def test_count_and_particle_log_z_distributions_match(self, space, monkeypatch):
        # two-sample KS on the normalizing-constant estimator across seeds
        from scipy.stats import ks_2samp

        samples = {}
        for mode in ("counts", "particles"):
            _take_path(monkeypatch, mode)
            samples[mode] = [
                run(_cfg(space, n=2_000, t=10, seed=rngmod.substream_seed(14, s))).log_z
                for s in range(150)
            ]
        assert ks_2samp(samples["counts"], samples["particles"]).pvalue > 0.01

    def test_restricted_toggle_allows_crossing(self):
        fam, part = ising_target(5, 1.0)
        cfg = RunConfig(family=fam, partition=part, n_particles=500,
                        mutation_steps=30, seed=3, restricted=False)
        report = run(cfg)  # smoke: unrestricted baseline stays runnable
        assert report.final_cells.shape == (500,)

    def test_conservation_every_stage(self, space, monkeypatch):
        for mode in ("counts", "particles"):
            _take_path(monkeypatch, mode)
            cfg = _cfg(space, seed=9)
            report = run(cfg)
            for d in report.diagnostics:
                assert abs(d.resample_probs.sum() - 1.0) < 1e-12
                assert d.occupancy_before.sum() == cfg.n_particles
                assert d.occupancy_after.sum() == cfg.n_particles


class TestEstimators:
    def test_constant_function(self, space):
        report = run(_cfg(space, seed=17))
        assert estimate(report, lambda x: np.ones(x.shape[0])) == 1.0

    def test_out_of_range_rejected(self, space):
        report = run(_cfg(space, seed=17))
        for value in (1.5, np.nan):
            with pytest.raises(ValueError):
                estimate(report, lambda x: np.full(x.shape[0], value))

    def test_symmetric_spin_sign_is_centered(self):
        fam, part = ising_target(5, 1.0)
        report = run(RunConfig(family=fam, partition=part, n_particles=4_000,
                               mutation_steps=25, seed=19))
        value = estimate(report, lambda x: np.sign(x.sum(axis=1)))
        assert abs(value) < 0.15  # ~4 resampling-accumulated standard errors

    def test_halfspace_indicator_centered(self):
        fam, part = gaussian_mixture_target(3)
        report = run(RunConfig(family=fam, partition=part, n_particles=4_000,
                               mutation_steps=25, seed=23))
        value = estimate(report, lambda x: (x.sum(axis=1) > 0).astype(float))
        assert abs(value - 0.5) < 0.08

    def test_log_partition_single_flat_stage(self):
        c = 2.5
        fam = index_family(np.full(3, 2.0 * math.log(c)), betas=(0.5, 1.0))
        part = index_partition(np.zeros(3, dtype=int))
        report = run(RunConfig(family=fam, partition=part, n_particles=100,
                               mutation_steps=0, seed=3))
        assert np.isclose(report.log_z, math.log(c), atol=1e-12)

    def test_log_partition_reference_family(self, space):
        exact = space.log_z(3) - space.log_z(0)
        hits = 0
        for s in range(20):
            report = run(_cfg(space, n=10_000, t=100,
                              seed=rngmod.substream_seed(29, s)))
            hits += abs(report.log_z - exact) / abs(exact) <= 0.05
        assert hits >= 19

    def test_log_partition_gaussian_d1(self):
        fam, part = gaussian_mixture_target(1, betas=(0.25, 0.5, 1.0))
        cat = analytic_catalog(fam)
        exact = cat.log_z(1.0) - cat.log_z(0.25)
        report = run(RunConfig(family=fam, partition=part, n_particles=10_000,
                               mutation_steps=40, seed=31))
        assert abs(report.log_z - exact) / abs(exact) <= 0.05


def _two_basin_path(m=512, stages=5):
    """A tilted double well on a path of m states, one basin per cell."""
    x = np.linspace(-1.0, 1.0, m)
    return DiscreteSpace.tempered(-6.0 * (x * x - 1.0) ** 2 + 0.6 * x,
                                  np.linspace(0.1, 1.0, stages + 1),
                                  (x > 0).astype(np.int64))


class TestWeightedPopulation:
    """The count path's report holds each state once with its count."""

    @pytest.mark.parametrize("restricted", [True, False])
    def test_final_rows_expand_the_population(self, space, restricted):
        report = run(_cfg(space, n=5_000, seed=53, restricted=restricted))
        assert np.array_equal(report.states, np.arange(space.n_states))
        assert report.counts.sum() == 5_000
        assert same_bits(report.cells, space.to_partition().classify(report.states))
        assert same_bits(report.final_states,
                         np.repeat(report.states, report.counts, axis=0))
        assert same_bits(report.final_cells, np.repeat(report.cells, report.counts))

    def test_particle_report_holds_rows(self):
        fam, part = gaussian_mixture_target(3)
        report = run(RunConfig(family=fam, partition=part, n_particles=300,
                               mutation_steps=3, seed=54))
        assert report.counts is None and report.lift is None
        assert report.final_states is report.states
        assert report.final_cells is report.cells

    def test_level_report_lifts_on_read(self):
        report = run(_spin(5, 300, 3, 54))
        assert np.array_equal(report.states, np.arange(6))
        assert report.counts.sum() == 300
        rows = report.final_states
        assert rows.shape == (300, 5) and rows.dtype == np.int8
        assert same_bits(report.final_states, rows)  # every read, the same rows
        levels = np.repeat(report.states, report.counts)
        assert np.array_equal((rows > 0).sum(axis=1), levels)
        assert same_bits(report.final_cells, np.repeat(report.cells, report.counts))

    @staticmethod
    def _bounded_run(cfg):
        """The run's report, after asserting it took well under a second
        and at most 1 MiB of traced allocations."""
        tracemalloc.start()
        try:
            tic = time.perf_counter()
            report = run(cfg)
            elapsed = time.perf_counter() - tic
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0, elapsed
        assert peak < 2**20, peak
        assert report.counts.sum() == cfg.n_particles
        return report

    @pytest.mark.parametrize("problem", ["four_state", "path512", "ising15"])
    def test_ten_billion_particles_in_bounded_time_and_memory(self, space, problem):
        if problem == "ising15":  # spin-flip symmetry: each cell holds 1/2
            cfg, probs = _spin(15, 10**10, 50, 55), np.array([0.5, 0.5])
        else:
            space = space if problem == "four_state" else _two_basin_path()
            cfg = _cfg(space, n=10**10, t=50, seed=55)
            probs = space.cell_probs(space.n_stages)
        report = self._bounded_run(cfg)
        assert report.counts.size == report.states.size <= 512  # O(m) numbers
        frac = np.bincount(report.cells, weights=report.counts) / 10**10
        assert np.all(np.abs(frac - probs) < 1e-3)

    def test_gate_one_bound_in_bounded_time_and_memory(self):
        # the theorem's N and t at gate 1's config (d = 15, alpha = 1,
        # epsilon = 0.05): 16 level counts, where spin rows would need 365 GiB
        report = self._bounded_run(_spin(15, 26_100_000_000, 638, 58))
        assert report.states.size == report.counts.size == 16
        frac = np.bincount(report.cells, weights=report.counts) / 26_100_000_000
        assert np.all(np.abs(frac - 0.5) < 1e-3)

    @pytest.mark.parametrize("restricted", [True, False])
    @pytest.mark.parametrize("d", [5, 15])
    def test_level_reads_draw_no_stream_and_call_no_problem(self, monkeypatch, d,
                                                            restricted):
        # a read after the run opens no RNG stream and calls neither log_q
        # nor classify, so a tracer's op span holds every call they make
        cfg = _spin(d, 2000, 5, 59, restricted=restricted)
        armed = []

        def tripwire(fn):
            def wrapped(*args):
                assert not armed, "called after the run returned"
                return fn(*args)
            return wrapped

        family = dataclasses.replace(cfg.family, log_q=tripwire(cfg.family.log_q))
        partition = dataclasses.replace(cfg.partition,
                                        classify=tripwire(cfg.partition.classify))
        report = run(dataclasses.replace(cfg, family=family, partition=partition))
        monkeypatch.setattr(rngmod, "stream", tripwire(rngmod.stream))
        armed.append(True)
        rows = report.final_states
        assert same_bits(report.final_states, rows)
        assert same_bits(report.final_cells, cfg.partition.classify(rows))
        for f in (lambda x: (x[:, 0] > 0).astype(float),
                  lambda x: np.tanh(0.3 * x[:, :3].sum(axis=1))):
            assert same_bits(estimate(report, f), float(f(rows).mean()))

    def test_occupancies_exact_past_float_precision(self, space):
        # 2**60 - 1 particles: float64 weights would drop the low bits
        n = 2**60 - 1
        report = run(_cfg(space, n=n, t=5, seed=56))
        assert report.counts.sum() == n
        for d in report.diagnostics:
            assert d.occupancy_before.dtype == np.int64
            assert int(d.occupancy_before.sum()) == n
            assert int(d.occupancy_after.sum()) == n

    def test_estimate_is_the_mean_over_rows(self):
        space = _two_basin_path(m=64)
        report = run(_cfg(space, n=100_001, t=5, seed=57))
        rows = report.final_states
        for f in (lambda x: (x % 3 == 0).astype(float),
                  lambda x: np.where(x < 20, -1.0, 1.0)):
            assert same_bits(estimate(report, f), float(f(rows).mean()))
        f = lambda x: np.sin(0.37 * x)
        assert math.isclose(estimate(report, f), float(f(rows).mean()),
                            rel_tol=1e-12)


class TestCellTracking:
    def test_symmetric_spin_tracking_small(self):
        fam, part = ising_target(5, 1.0)
        cat = analytic_catalog(fam)
        report = run(RunConfig(family=fam, partition=part, n_particles=10_000,
                               mutation_steps=25, seed=37))
        errs = cell_tracking_error(report, cat)
        assert errs.shape == (5,)
        assert errs.max() < 5 * math.sqrt(5 * 0.25 / 10_000)

    def test_single_particle_degenerate(self, space):
        report = run(_cfg(space, n=1, t=5, seed=41))
        errs = cell_tracking_error(report, space)
        bound = max(
            1 - space.cell_probs(v).min() for v in range(1, space.n_stages + 1)
        )
        assert errs.max() <= bound + 1e-12

    def test_works_against_enumerated_space(self, space):
        report = run(_cfg(space, n=50_000, t=20, seed=43))
        errs = cell_tracking_error(report, space)
        assert errs.max() < 0.02


def _compositions(n, m):
    """Every m-tuple of nonnegative integers summing to n."""
    if m == 1:
        return [(n,)]
    return [(k, *rest) for k in range(n + 1) for rest in _compositions(n - k, m - 1)]


def _multinomial_pmf(c, p):
    out = math.factorial(sum(c))
    for k, q in zip(c, p):
        out *= q**k / math.factorial(k)
    return out


class TestExactStageLaw:
    """The joint law of (INIT counts, stage-1 ``occupancy_after``, stage-1
    counts) on the reference four-state space's first stage at N = 3,
    enumerated in plain Python, against 4000 seeds of each engine path by
    a chi-square over the outcomes with expected count >= 5 (the rest
    pooled into one bin), accepted at p > 1e-3."""

    PI = (0.4, 0.1, 0.2, 0.3)
    CELLS = (0, 0, 1, 1)
    N, SEEDS = 3, 4000

    def _problem(self):
        # stage 0 proportional to pi^(1/4) and stage 1 to pi^(1/2): the
        # reference ladder's first two rungs
        fam = index_family(0.5 * np.log(self.PI), betas=(0.5, 1.0))
        return fam, index_partition(np.array(self.CELLS))

    def _kernel(self, restricted):
        """The stage-1 walk: each neighbour proposed with 1/2, accepted
        with min(1, mass ratio); moves off the path, or across a cell edge
        when restricted, stay."""
        mass = [p**0.5 for p in self.PI]
        K = [[0.0] * 4 for _ in range(4)]
        for i in range(4):
            for j in (i - 1, i + 1):
                if 0 <= j < 4 and not (restricted and self.CELLS[j] != self.CELLS[i]):
                    K[i][j] = 0.5 * min(1.0, mass[j] / mass[i])
            K[i][i] = 1.0 - sum(K[i])
        return K

    def _exact(self, restricted, t):
        K = self._kernel(restricted)
        start = [p**0.25 for p in self.PI]
        start = [x / sum(start) for x in start]
        weight = [p**0.25 for p in self.PI]  # pi^(1/2) / pi^(1/4)
        law = {}
        for c0 in _compositions(self.N, 4):
            p0 = _multinomial_pmf(c0, start)
            r = [c * w for c, w in zip(c0, weight)]
            total = sum(r)
            p_cell = [sum(x for x, c in zip(r, self.CELLS) if c == j) / total
                      for j in (0, 1)]
            moved = []  # each cell's share of r, carried t steps
            for j in (0, 1):
                q = [x / (p_cell[j] * total) if c == j else 0.0
                     for x, c in zip(r, self.CELLS)] if p_cell[j] else [0.0] * 4
                for _ in range(t):
                    q = [sum(q[i] * K[i][k] for i in range(4)) for k in range(4)]
                moved.append(q)
            for n0 in range(self.N + 1):
                n = (n0, self.N - n0)
                pn = _multinomial_pmf(n, p_cell)
                if pn == 0.0:
                    continue
                for a in _compositions(n[0], 4):
                    pa = _multinomial_pmf(a, moved[0])
                    for b in _compositions(n[1], 4):
                        c1 = tuple(x + y for x, y in zip(a, b))
                        key = (c0, n, c1)
                        pb = _multinomial_pmf(b, moved[1])
                        law[key] = law.get(key, 0.0) + p0 * pn * pa * pb
        return law

    def _sample(self, monkeypatch, path, restricted, t):
        _take_path(monkeypatch, path)
        fam, part = self._problem()
        init = []

        def spy(stage, n, log_mass, states, cells, counts, gen, p):
            init.append(tuple(np.bincount(states, minlength=4)) if counts is None
                        else tuple(counts))
            return _resample(stage, n, log_mass, states, cells, counts, gen, p)

        monkeypatch.setattr(modesmc.engine, "_resample", spy)
        seen = {}
        for s in range(self.SEEDS):
            report = run(RunConfig(family=fam, partition=part, n_particles=self.N,
                                   mutation_steps=t, restricted=restricted,
                                   seed=rngmod.substream_seed(57, s)))
            final = np.bincount(report.final_states, minlength=4)
            key = (init[-1], tuple(report.diagnostics[0].occupancy_after),
                   tuple(int(x) for x in final))
            key = tuple(tuple(int(x) for x in k) for k in key)
            seen[key] = seen.get(key, 0) + 1
        return seen

    @pytest.mark.parametrize("path,restricted,t,banded", [
        pytest.param(*case, False, id="-".join(map(str, case))) for case in (
            ("counts", True, 3), ("counts", False, 3), ("counts", True, 1),
            ("particles", True, 3), ("particles", False, 3),
        )
    ] + [pytest.param("counts", True, 3, True, id="counts-True-3-banded")])
    def test_joint_law_of_the_first_stage(self, monkeypatch, path, restricted, t,
                                          banded):
        if banded:  # the summed carry of the banded steps, not the t-step matrix
            monkeypatch.setattr(kernels, "_T_STEP_COST", 0)
        law = self._exact(restricted, t)
        assert math.isclose(sum(law.values()), 1.0, rel_tol=1e-12)
        seen = self._sample(monkeypatch, path, restricted, t)
        assert set(seen) <= {k for k, p in law.items() if p > 0}
        expected = {k: self.SEEDS * p for k, p in law.items()}
        big = [k for k, e in expected.items() if e >= 5.0]
        observed = [seen.get(k, 0) for k in big]
        want = [expected[k] for k in big]
        observed.append(self.SEEDS - sum(observed))
        want.append(self.SEEDS - sum(want))
        assert len(big) >= 20
        assert chisquare(observed, want).pvalue > 1e-3


class TestTrace:
    def test_resampled_trace_counts(self, space, monkeypatch):
        for mode in ("counts", "particles"):
            _take_path(monkeypatch, mode)
            cfg = _cfg(space, n=1_000, t=5, seed=47, record_resampled=True)
            report = run(cfg)
            assert len(report.resampled_trace) == space.n_stages
            for counts, diag in zip(report.resampled_trace, report.diagnostics):
                assert counts.shape == (space.n_states,)
                assert counts.sum() == 1_000
                cell_sums = np.bincount(space.labels, weights=counts, minlength=2)
                assert np.array_equal(cell_sums, diag.occupancy_after)
            # the trace draws nothing: a traced run is the untraced one
            plain = run(dataclasses.replace(cfg, record_resampled=False))
            assert_same_run(report, plain)

    @pytest.mark.parametrize("target", ["gaussian", "spin-rows"])
    def test_trace_needs_an_index_population(self, target, monkeypatch):
        if target == "gaussian":
            fam, part = gaussian_mixture_target(3)
        else:  # a spin partition without a reduced form runs the spin rows
            fam, part = ising_target(5, 1.0)
            part = dataclasses.replace(part, reduced=None)

        def no_draw(*args):
            raise AssertionError("a stream was opened")

        monkeypatch.setattr(rngmod, "stream", no_draw)
        with pytest.raises(ValueError, match="record_resampled"):
            run(RunConfig(family=fam, partition=part, n_particles=100,
                          mutation_steps=2, seed=48, record_resampled=True))


def _spin(d, n, t, seed, alpha=1.0, **kw):
    fam, part = ising_target(d, alpha)
    return RunConfig(family=fam, partition=part, n_particles=n, mutation_steps=t,
                     seed=seed, **kw)


class TestSpinLevels:
    """The spin model's count path over its d + 1 magnetisation levels."""

    @pytest.mark.parametrize("restricted", [True, False])
    @pytest.mark.parametrize("d", [5, 7])
    def test_levels_and_particles_share_law(self, monkeypatch, d, restricted):
        # two-sample KS tests over 200 seeds on log z and the final fraction
        # of particles in cell 0
        samples = {}
        for mode in ("counts", "particles"):
            _take_path(monkeypatch, mode)
            reports = [
                run(_spin(d, 200, 5, rngmod.substream_seed(60 + d, s),
                          restricted=restricted))
                for s in range(200)
            ]
            samples[mode] = (
                [r.log_z for r in reports],
                [float(np.mean(r.final_cells == 0)) for r in reports],
            )
        for a, b in zip(samples["counts"], samples["particles"]):
            assert ks_2samp(a, b).pvalue > 0.001

    def test_one_final_particle_follows_the_target(self):
        # one uniformly chosen final particle from each of 1000 runs, by
        # chi-square over the 32 configurations of d = 5 against mu_V
        fam, _ = ising_target(5, 1.0)
        mu = ising_space(5, 1.0, fam.betas).stage_probs(fam.n_stages)
        pick = np.random.default_rng(67)
        counts = np.zeros(32)
        for s in range(1000):
            report = run(_spin(5, 200, 5, rngmod.substream_seed(67, s)))
            x = report.final_states[pick.integers(200)]
            counts[((x > 0) << np.arange(5)).sum()] += 1
        assert chisquare(counts, 1000 * mu).pvalue > 0.001

    @staticmethod
    def _kernels(monkeypatch):
        """The kernel classes the engine's stage_kernel returns, in order."""
        seen = []

        def spying_kernel(*args, **kwargs):
            kernel = stage_kernel(*args, **kwargs)
            seen.append(type(kernel).__name__)
            return kernel

        monkeypatch.setattr("modesmc.engine.stage_kernel", spying_kernel)
        return seen

    def test_renamed_family_keeps_the_levels(self, monkeypatch):
        # the path comes from the family's fields, not its name, so copies
        # made by dataclasses.replace (as a tracer makes them) run the levels
        cfg = _spin(5, 300, 4, 3)
        seen = self._kernels(monkeypatch)
        other = dataclasses.replace(cfg.family, name="custom-spin")
        report = run(dataclasses.replace(cfg, family=other))
        assert set(seen) == {"DiscreteNeighborWalk"}
        assert_same_run(report, run(cfg))

    def test_partition_without_reduced_form_runs_spin_rows(self, monkeypatch):
        cfg = _spin(5, 300, 4, 3)
        part = Partition(cfg.partition.n_cells, cfg.partition.classify)
        seen = self._kernels(monkeypatch)
        report = run(dataclasses.replace(cfg, partition=part))
        assert set(seen) == {"SingleSiteFlip"}
        _take_path(monkeypatch, "particles")
        assert_same_run(report, run(cfg))

    @pytest.mark.parametrize("d,kernel", [(5, "DiscreteNeighborWalk"),
                                          (7, "SingleSiteFlip")])
    def test_levels_past_the_cap_run_spin_rows(self, monkeypatch, d, kernel):
        # d + 1 levels take the count path up to COUNT_PATH_MAX_STATES (here
        # 6), as ising above d = 2047 does at the default cap
        monkeypatch.setattr(modesmc.engine, "COUNT_PATH_MAX_STATES", 6)
        seen = self._kernels(monkeypatch)
        report = run(_spin(d, 50, 2, 4))
        assert set(seen) == {kernel}
        assert report.final_states.shape == (50, d)

    def test_partition_not_of_the_spin_sum_keeps_the_law(self, monkeypatch):
        # the first spin's sign is not a function of the level: it runs on
        # spin rows, and by spin-flip symmetry its cell 0 holds mass 1/2 at
        # every stage; the mean final fraction over 200 runs must lie within
        # 4 standard errors of 1/2
        fam, _ = ising_target(7, 2.0)
        part = Partition(2, lambda x: np.where(np.atleast_2d(x)[:, 0] > 0, 0, 1))

        def config(seed):
            return RunConfig(family=fam, partition=part, n_particles=500,
                             mutation_steps=5, seed=seed)

        reports = [run(config(rngmod.substream_seed(90, s))) for s in range(200)]
        frac = np.array([np.mean(r.final_cells == 0) for r in reports])
        se = frac.std(ddof=1) / math.sqrt(frac.size)
        assert abs(frac.mean() - 0.5) < 4.0 * se, (frac.mean(), se)
        _take_path(monkeypatch, "particles")
        assert_same_run(reports[0], run(config(rngmod.substream_seed(90, 0))))

    def test_copied_partition_keeps_the_levels(self):
        # wrapped copies of the callables, as a tracer makes, run the same
        # levels: the path is the family's, not the partition's identity
        cfg = _spin(15, 2000, 10, 5)
        part = dataclasses.replace(cfg.partition,
                                   classify=lambda x: cfg.partition.classify(x))
        fam = dataclasses.replace(cfg.family, log_q=lambda x: cfg.family.log_q(x))
        assert_same_run(run(cfg), run(dataclasses.replace(cfg, family=fam,
                                                          partition=part)))

    @pytest.mark.parametrize("alpha,restricted", [(0.0, False), (-2.0, True),
                                                  (-2.0, False)])
    @pytest.mark.parametrize("d", [5, 15])
    def test_band_edges_run_quietly(self, d, alpha, restricted):
        # alpha = 0 unrestricted has down + up = 1 on every level, whose
        # conditional rounds past 1 at (d, k) = (5, 4) and (15, 12); alpha < 0
        # moves every particle off the end levels (down[d] = 1)
        report = run(_spin(d, 500, 5, 7, alpha=alpha, restricted=restricted))
        assert report.final_states.shape == (500, d)
        assert np.isfinite(report.log_z)

    def test_resampled_trace_is_a_level_histogram(self):
        report = run(_spin(7, 1000, 5, 9, record_resampled=True))
        assert len(report.resampled_trace) == 7
        for counts in report.resampled_trace:
            assert counts.shape == (8,)
            assert counts.sum() == 1000


class TestLumpingMatch:
    """A partition's reduced form runs only with the ``Lumping`` it names."""

    @pytest.mark.parametrize("pairing,kernel", [
        ("gauss-cells-on-spins", "SingleSiteFlip"),
        ("spin-cells-on-gauss", "RandomWalkMetropolis"),
        ("another-call", "SingleSiteFlip"),
    ])
    def test_mismatch_runs_the_full_family(self, monkeypatch, pairing, kernel):
        # a reduced form naming another family's lumping, or another
        # call's, is passed over: the run takes full rows, bit for bit as
        # with no reduced form
        spins, spin_cells = ising_target(7, 1.0)
        gauss, gauss_cells = gaussian_mixture_target(3)
        fam, part = {
            "gauss-cells-on-spins": (spins, gauss_cells),
            "spin-cells-on-gauss": (gauss, spin_cells),
            "another-call": (spins, ising_target(7, 1.0)[1]),
        }[pairing]
        cfg = RunConfig(family=fam, partition=part, n_particles=300,
                        mutation_steps=3, seed=58)
        seen = TestSpinLevels._kernels(monkeypatch)
        report = run(cfg)
        assert set(seen) == {kernel}
        plain = dataclasses.replace(part, reduced=None)
        assert_same_run(report, run(dataclasses.replace(cfg, partition=plain)))


class TestLogSumExp:
    """The resampling step's logsumexp against scipy's, bit for bit (all
    -inf weights still raise WeightCollapseError: TestResample)."""

    @staticmethod
    def _vectors():
        gen = np.random.default_rng(71)
        yield np.array([3.5])
        yield np.array([-np.inf])
        yield np.full(7, -np.inf)
        yield np.array([2.0, 2.0, 2.0])
        yield np.array([-np.inf, 1.0, -np.inf, 1.0])
        yield np.array([-745.0, -1e300, 0.0])
        for _ in range(3000):
            n = int(gen.integers(1, 40))
            a = gen.normal(size=n) * 10.0 ** gen.uniform(-3, 3)
            if gen.random() < 0.3:  # ties at the max and elsewhere
                a[gen.choice(n, int(gen.integers(1, n + 1)))] = a.max()
            if gen.random() < 0.3:
                a[gen.random(n) < 0.3] = -np.inf
            yield a

    def test_matches_scipy_bit_for_bit(self):
        from scipy.special import logsumexp

        for a in self._vectors():
            assert same_bits(modesmc.engine._logsumexp(a), logsumexp(a)), a


def _gauss(d, n, t, seed, reduced=True, **kw):
    """A Gaussian-mixture config; reduced=False gives the partition no
    reduced form, which keeps the run on d-dim rows."""
    betas = (0.25, 0.5, 1.0) if d == 1 else None
    fam, part = gaussian_mixture_target(d, betas=betas)
    if not reduced:
        part = Partition(part.n_cells, part.classify)
    return RunConfig(family=fam, partition=part, n_particles=n, mutation_steps=t,
                     seed=seed, **kw)


class TestGaussianRows:
    """The Gaussian mixture's engine run on its (s, r) rows."""

    @pytest.mark.parametrize("restricted", [True, False])
    def test_rows_and_dims_share_law(self, restricted):
        # two-sample KS tests over 200 seeds on log z and the final fraction
        # of particles in cell 0, as for the spin levels
        samples = {}
        for reduced in (True, False):
            reports = [
                run(_gauss(3, 200, 5, rngmod.substream_seed(80, s),
                           reduced=reduced, restricted=restricted))
                for s in range(200)
            ]
            samples[reduced] = (
                [r.log_z for r in reports],
                [float(np.mean(r.final_cells == 0)) for r in reports],
            )
        for a, b in zip(samples[True], samples[False]):
            assert ks_2samp(a, b).pvalue > 0.001

    @pytest.mark.parametrize("reduced,kernel", [(True, "RadialWalk"),
                                                (False, "RandomWalkMetropolis")])
    def test_path_follows_the_partition(self, monkeypatch, reduced, kernel):
        # the engine looks stage_kernel up through its module global
        seen = []

        def spying_kernel(*args, **kwargs):
            base = stage_kernel(*args, **kwargs)
            seen.append(type(base).__name__)
            return base

        monkeypatch.setattr("modesmc.engine.stage_kernel", spying_kernel)
        cfg = _gauss(3, 50, 2, 81, reduced=reduced)
        report = run(cfg)
        assert set(seen) == {kernel} and len(seen) == cfg.family.n_stages
        assert report.final_states.shape == (50, 3)

    def test_copied_callables_keep_the_rows(self):
        # wrapped copies of log_q and classify, made by dataclasses.replace
        # as a tracer makes them, run the same (s, r) rows to the same bytes
        cfg = _gauss(5, 500, 10, 82)
        fam = dataclasses.replace(cfg.family, log_q=lambda x: cfg.family.log_q(x))
        part = dataclasses.replace(cfg.partition,
                                   classify=lambda x: cfg.partition.classify(x))
        copied = dataclasses.replace(cfg, family=fam, partition=part)
        assert_same_run(run(cfg), run(copied))

    @pytest.mark.parametrize("restricted", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 40])
    def test_final_cells_classify_final_states(self, d, restricted):
        # d = 1 has no r and d = 2 no chi-square part; pytest turns a numpy
        # warning into an error
        cfg = _gauss(d, 300, 4, 83 + d, restricted=restricted)
        report = run(cfg)
        cells = cfg.partition.classify(report.final_states)
        assert report.final_states.shape == (300, d)
        assert report.final_cells.dtype == cells.dtype
        assert np.array_equal(report.final_cells, cells)
        assert np.isfinite(report.log_z)


# float extremes for the library fuzz: subnormals, huge values and ordinary ones
_EXTREME = st.sampled_from([5e-324, 1e-300, 1e-160, 1e-8, 1e150, 1e300, 1.7e308])
_POSITIVE = _EXTREME | st.floats(1e-3, 1e3)


@st.composite
def _library_runs(draw):
    d = draw(st.integers(1, 60))
    target = {
        "w": draw(st.sampled_from([5e-324, 1e-300, 0.5, 1.0 - 2**-53])
                  | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        "sigma": draw(_POSITIVE),
        "nu": draw(_POSITIVE | st.just(0.0)) * draw(st.sampled_from([1.0, -1.0])),
        "betas": (0.5, 1.0) if d == 1 else None,
    }
    run_args = {
        "n_particles": draw(st.integers(1, 40)),
        "mutation_steps": draw(st.integers(0, 3)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "step_size": draw(st.none() | _POSITIVE),
        "restricted": draw(st.booleans()),
        "workers": draw(st.sampled_from([1, 2])),
    }
    return d, target, run_args, draw(st.booleans())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_library_runs())
def test_library_run_fuzz(case):
    # a run of the library API, on (s, r) rows or on d-dim rows, returns a
    # finite report or raises one of the engine's errors, with no numpy
    # warning (an error under pytest)
    d, target, run_args, reduced = case
    try:
        fam, part = gaussian_mixture_target(d, **target)
        if not reduced:  # the d-dim path
            part = Partition(part.n_cells, part.classify)
        report = run(RunConfig(family=fam, partition=part, **run_args))
    except (InvalidStateError, WeightCollapseError, ValueError):
        return
    assert np.isfinite(report.log_z)
    assert np.all(np.isfinite(report.final_states))
    assert np.array_equal(report.final_cells, part.classify(report.final_states))
