import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import modesmc.engine
from conftest import assert_same_run, same_bits
from modesmc import (
    AnnealedFamily,
    InvalidStateError,
    RunConfig,
    analytic_catalog,
    gaussian_mixture_target,
    geometric_schedule,
    index_family,
    ising_target,
    linear_schedule,
    run,
)
from modesmc import rng as rngmod
from modesmc.families import _truncated_normal_ppf


class TestSchedules:
    def test_geometric_d2_by_hand(self):
        # (1/2)(3/2)^v for v = 0, 1, then the unit cap
        assert geometric_schedule(2) == (0.5, 0.75, 1.0)

    def test_geometric_d10_shape(self):
        betas = geometric_schedule(10)
        assert betas[0] == 0.1
        assert betas[-1] == 1.0
        assert len(betas) == math.ceil(10 * math.log(10)) + 1

    def test_geometric_monotone(self):
        for d in (2, 3, 7, 24, 101):
            betas = geometric_schedule(d)
            assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))
            assert betas[-1] == 1.0

    def test_geometric_rejects_small_d(self):
        with pytest.raises(ValueError):
            geometric_schedule(1)

    def test_linear_d4(self):
        assert linear_schedule(4) == (0.25, 0.5, 0.75, 1.0)

    def test_linear_d1(self):
        assert linear_schedule(1) == (1.0,)

    def test_linear_uniform_spacing(self):
        for d in (1, 2, 9, 30):
            betas = linear_schedule(d)
            assert betas[-1] == 1.0
            gaps = np.diff(betas)
            assert np.allclose(gaps, 1.0 / d)

    def test_linear_rejects_zero(self):
        with pytest.raises(ValueError):
            linear_schedule(0)


class TestLogWeight:
    def test_unit_density_point_weighs_nothing(self):
        fam = index_family(np.array([0.0, -1.0]), betas=(0.5, 1.0))
        assert fam.log_weight(1, np.array([0]))[0] == 0.0

    def test_ising_hand_value(self):
        # log q(+1,+1,+1) = alpha d / 2 = 1.5, times delta beta = 1/3
        fam, _ = ising_target(3, 1.0)
        x = np.ones((1, 3), dtype=np.int8)
        assert np.isclose(fam.log_q(x)[0], 1.5)
        assert np.isclose(fam.log_weight(1, x)[0], 0.5)

    def test_four_state_against_enumeration(self, space, oracle):
        fam = space.to_family()
        idx = np.arange(4)
        for v in (1, 2, 3):
            expected = [
                (oracle["betas"][v] - oracle["betas"][v - 1]) * math.log(p)
                for p in oracle["pi"]
            ]
            assert np.allclose(fam.log_weight(v, idx), expected, atol=1e-14)

    def test_invalid_state_raises(self):
        fam, _ = gaussian_mixture_target(2)
        bad = np.array([[np.inf, 0.0]])
        with pytest.raises(InvalidStateError):
            fam.log_weight(1, bad)

    def test_stage_range_checked(self):
        fam, _ = ising_target(3, 1.0)
        with pytest.raises(ValueError):
            fam.log_weight(0, np.ones((1, 3)))
        with pytest.raises(ValueError):
            fam.log_weight(fam.n_stages + 1, np.ones((1, 3)))


class TestGaussianMixture:
    def test_center_log_density_is_log_w(self):
        for w in (0.5, 0.3):
            fam, _ = gaussian_mixture_target(4, w=w)
            x = np.ones((1, 4))
            assert np.isclose(fam.log_q(x)[0], math.log(w))

    def test_d1_hand_value(self):
        fam, _ = gaussian_mixture_target(1, betas=(0.5, 1.0))
        got = fam.log_q(np.array([[0.5]]))[0]
        assert np.isclose(got, math.log(0.5) - (0.5 - 1.0) ** 2 / 2.0)

    def test_boundary_tie_goes_to_second_cell(self):
        _, part = gaussian_mixture_target(2)
        x = np.array([[1.0, -1.0], [0.5, 0.5], [-2.0, 1.0]])
        assert list(part.classify(x)) == [1, 0, 1]

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_mixture_target(2, sigma=0.0)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            gaussian_mixture_target(2, w=1.0)

    def test_partition_total_and_stable(self, gen):
        fam, part = gaussian_mixture_target(3)
        x = gen.normal(size=(100_000, 3)) * 3.0
        cells = part.classify(x)
        assert set(np.unique(cells)) <= {0, 1}
        assert np.array_equal(cells, part.classify(x))

    def test_weights_never_exceed_one(self, gen):
        # log q <= log max(w, 1-w) < 0, so all stage weights are <= 1
        fam, _ = gaussian_mixture_target(3, w=0.4)
        x = gen.normal(size=(20_000, 3)) * 2.0
        for v in (1, fam.n_stages):
            assert fam.log_weight(v, x).max() <= 0.0


class TestIsing:
    def test_all_up_log_density(self):
        fam, _ = ising_target(5, 2.0)
        x = np.ones((1, 5), dtype=np.int8)
        assert np.isclose(fam.log_q(x)[0], 2.0 * 5 / 2.0)

    def test_positive_sum_in_first_cell(self):
        _, part = ising_target(3, 1.0)
        x = np.array([[1, 1, -1]], dtype=np.int8)  # sum = +1
        assert part.classify(x)[0] == 0

    def test_spin_flip_symmetry(self, gen):
        fam, part = ising_target(7, 1.3)
        x = (gen.integers(0, 2, size=(50_000, 7)) * 2 - 1).astype(np.int8)
        assert np.allclose(fam.log_q(x), fam.log_q(-x))
        assert np.all(part.classify(x) != part.classify(-x))

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            ising_target(4, 1.0)

    def test_shifted_family_weights_bounded(self, gen):
        # subtracting the known max alpha d / 2 makes log q <= 0
        d, alpha = 5, 1.0
        fam, _ = ising_target(d, alpha)
        shifted = AnnealedFamily(
            log_q=lambda x: fam.log_q(x) - alpha * d / 2.0,
            betas=fam.betas,
            dimension=d,
            kind="spin",
            sample_initial=fam.sample_initial,
            name="shifted",
        )
        x = (gen.integers(0, 2, size=(20_000, d)) * 2 - 1).astype(np.int8)
        for v in (1, d):
            assert shifted.log_weight(v, x).max() <= 0.0

    def test_partition_total_and_stable(self, gen):
        _, part = ising_target(9, 0.7)
        x = (gen.integers(0, 2, size=(100_000, 9)) * 2 - 1).astype(np.int8)
        cells = part.classify(x)
        assert set(np.unique(cells)) <= {0, 1}
        assert np.array_equal(cells, part.classify(x))


class TestAnalyticCatalog:
    def test_ising_cells_are_half(self):
        fam, _ = ising_target(7, 2.5)
        cat = analytic_catalog(fam)
        for v in range(fam.n_stages + 1):
            assert np.array_equal(cat.cell_probability(v), [0.5, 0.5])
        table = cat.cell_mass_table()
        assert np.array_equal(table, np.full((fam.n_stages + 1, 2), 0.5))

    def test_gaussian_symmetric_exact_half(self):
        fam, _ = gaussian_mixture_target(6, w=0.5)
        cat = analytic_catalog(fam)
        for v in range(fam.n_stages + 1):
            probs = cat.cell_probability(v)
            assert probs[0] == 0.5 and probs[1] == 0.5

    def test_gaussian_mu_star_at_least_quarter(self):
        for d in (2, 5, 12):
            fam, _ = gaussian_mixture_target(d)
            cat = analytic_catalog(fam)
            assert cat.cell_mass_table().min() >= 0.25

    def test_unsupported_family_rejected(self):
        fam = index_family(np.zeros(3), betas=(0.5, 1.0))
        with pytest.raises(ValueError):
            analytic_catalog(fam)

    def test_z_ratio_of_equal_betas_is_one(self):
        fam, _ = gaussian_mixture_target(3)
        cat = analytic_catalog(fam)
        assert math.exp(cat.log_z(0.7) - cat.log_z(0.7)) == 1.0

    def test_z_ratio_within_coarse_bound(self):
        fam, _ = gaussian_mixture_target(2)
        cat = analytic_catalog(fam)
        ratios = [cat.z_ratio(v) for v in range(1, fam.n_stages + 1)]
        for v, ratio in enumerate(ratios, start=1):
            # the coarse bound 2 (beta_v / beta_{v-1})^{d/2}, at d = 2
            assert ratio <= 2.0 * (fam.betas[v] / fam.betas[v - 1])
        assert cat.z_ratio_bound() == max(ratios)

    def test_z_ratio_d1_against_quadrature(self):
        # independent oracle: numerical integration of q**beta on the line
        fam, _ = gaussian_mixture_target(1, betas=(0.5, 1.0))
        cat = analytic_catalog(fam)

        def q(x):
            if x > 0:
                return 0.5 * math.exp(-((x - 1.0) ** 2) / 2.0)
            return 0.5 * math.exp(-((x + 1.0) ** 2) / 2.0)

        def z(beta):
            lo, _ = quad(lambda x: q(x) ** beta, -30, 0, epsabs=1e-13, epsrel=1e-13)
            hi, _ = quad(lambda x: q(x) ** beta, 0, 30, epsabs=1e-13, epsrel=1e-13)
            return lo + hi

        assert np.isclose(cat.z_ratio(1), z(0.5) / z(1.0), rtol=1e-10)

    def test_ising_weight_and_z_bounds(self):
        # W = exp(|alpha|/2) carries the whole density-ratio bound, so Z = 1
        for alpha in (3.0, -3.0):
            fam, _ = ising_target(5, alpha)
            cat = analytic_catalog(fam)
            assert cat.weight_bound() == math.exp(1.5)
            assert cat.z_ratio_bound() == 1.0
            assert cat.n_stages == fam.n_stages == 5

    def test_log_z_far_from_own_halfspace(self):
        # nu = -30 at d = 3 leaves each component ~52 sds outside its own
        # half-space, where Phi underflows; oracle: the Mills-ratio series
        # log Phi(x) = -x^2/2 - log(-x) - log(2 pi)/2 + log(1 - 1/x^2 + 3/x^4 - ...)
        fam, _ = gaussian_mixture_target(3, nu=-30.0)
        cat = analytic_catalog(fam)
        for beta in fam.betas:
            x = -30.0 * math.sqrt(3 * beta)
            log_phi = (
                -x * x / 2 - math.log(-x) - 0.5 * math.log(2 * math.pi)
                + math.log(1 - 1 / x**2 + 3 / x**4 - 15 / x**6 + 105 / x**8)
            )
            mix = math.log(2 * 0.5**beta)  # w**beta + (1-w)**beta at w = 1/2
            expected = mix + log_phi + 1.5 * math.log(2 * math.pi / beta)
            assert math.isclose(cat.log_z(beta), expected, rel_tol=1e-12)

    def test_log_z_past_float_range_is_overflow(self):
        fam, _ = gaussian_mixture_target(3, nu=-1.0e257)
        with pytest.raises(OverflowError):
            analytic_catalog(fam).log_z(1.0)


class TestExactStageSampling:
    def test_gaussian_stage_sampler_matches_cell_masses(self):
        fam, part = gaussian_mixture_target(3, w=0.3)
        cat = analytic_catalog(fam)
        gen = rngmod.stream(7, 0, rngmod.REPLICATE)
        n = 200_000
        for v in (0, fam.n_stages):
            x = fam.sample_stage(v, n, gen)
            occupancy = np.bincount(part.classify(x), minlength=2) / n
            expected = cat.cell_probability(v)
            se = np.sqrt(expected * (1 - expected) / n)
            assert np.all(np.abs(occupancy - expected) <= 4 * se)

    def test_gaussian_projection_moments(self):
        # along u = 1/sqrt(d) the positive component is a truncated normal
        fam, _ = gaussian_mixture_target(4)
        gen = rngmod.stream(8, 0, rngmod.REPLICATE)
        beta = fam.betas[-1]
        x = fam.sample_stage(fam.n_stages, 300_000, gen)
        s = x.sum(axis=1) / 2.0  # u-projection, d = 4
        pos = s[s > 0]
        from scipy.stats import truncnorm

        m, sd = 2.0, 1.0 / math.sqrt(beta)
        ref = truncnorm(a=-m / sd, b=np.inf, loc=m, scale=sd)
        assert abs(pos.mean() - ref.mean()) < 4 * ref.std() / math.sqrt(pos.size)


class TestTruncatedNormalPpf:
    """The private inverse CDF against scipy.stats.truncnorm, which it replaces."""

    EDGES = np.array([0.0, 1.0 - 2.0**-53, 5e-324, 1e-300, 0.5])

    @pytest.mark.parametrize(
        "a", [-38.0, -8.5, -1.3, -1e-9, -0.0, 0.0, 1e-9, 0.7, 4.0, 12.0, 36.0]
    )
    def test_matches_scipy_truncnorm(self, a):
        from scipy.stats import truncnorm

        us = np.concatenate([self.EDGES, np.random.default_rng(31).random(500)])
        got = _truncated_normal_ppf(us, a)
        want = truncnorm.ppf(us, a=a, b=np.inf)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert got[0] == a

    @pytest.mark.parametrize("nu", [0.0, -1.0])
    def test_stage_sampler_at_nonpositive_centres(self, nu):
        # nu <= 0 puts each component's centre on or behind its half-space,
        # so the projection onto 1_d is truncated at a = -m/sd >= 0
        from scipy.stats import kstest, truncnorm

        d = 3
        fam, _ = gaussian_mixture_target(d, nu=nu)
        gen = rngmod.stream(12, 0, rngmod.REPLICATE)
        m = nu * math.sqrt(d)
        for v in (0, fam.n_stages // 2, fam.n_stages):
            sd = 1.0 / math.sqrt(fam.betas[v])
            s = np.abs(fam.sample_stage(v, 20_000, gen).sum(axis=1)) / math.sqrt(d)
            ref = truncnorm(a=-m / sd, b=np.inf, loc=m, scale=sd)
            assert kstest(s, ref.cdf).pvalue > 1e-3


class TestFamilyValidation:
    def test_betas_must_increase(self):
        with pytest.raises(ValueError):
            index_family(np.zeros(2), betas=(0.5, 0.5, 1.0))

    def test_final_beta_must_be_one(self):
        with pytest.raises(ValueError):
            index_family(np.zeros(2), betas=(0.25, 0.5))

    def test_zero_beta_forbidden_on_real_spaces(self):
        fam, _ = gaussian_mixture_target(2)
        with pytest.raises(ValueError):
            AnnealedFamily(
                log_q=fam.log_q,
                betas=(0.0, 1.0),
                dimension=2,
                kind="real",
                sample_initial=fam.sample_initial,
            )

    def test_zero_beta_allowed_on_spin_spaces(self):
        fam, _ = ising_target(3, 1.0)
        assert fam.betas[0] == 0.0


# ---------------------------------------------------------------------------
# The hot closures written plainly, kept as references.


def reference_gaussian_log_q(d, w=0.5, sigma=1.0, nu=1.0):
    center = nu * np.ones(d)
    inv2s2 = 1.0 / (2.0 * sigma**2)
    logw1, logw2 = math.log(w), math.log(1.0 - w)

    def log_q(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        in_h = x.sum(axis=1) > 0.0
        f1 = ((x - center) ** 2).sum(axis=1) * inv2s2
        f2 = ((x + center) ** 2).sum(axis=1) * inv2s2
        return np.where(in_h, logw1 - f1, logw2 - f2)

    return log_q


def reference_half_space_classify(x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.where(x.sum(axis=1) > 0.0, 0, 1)


def reference_spin_sign_classify(x):
    x = np.atleast_2d(np.asarray(x))
    return np.where(x.sum(axis=1) >= 0, 0, 1)


def reference_ising_log_q(d, alpha):
    coeff = alpha / (2.0 * d)

    def log_q(x):
        x = np.atleast_2d(np.asarray(x))
        s = x.sum(axis=1).astype(float)
        return coeff * s * s

    return log_q


def layouts(x):
    """x as C-ordered, Fortran-ordered and strided (n, d) arrays."""
    wide = np.repeat(x, 2, axis=1)
    wide[:, 1::2] = 7.0
    return [x, np.asfortranarray(x), wide[:, ::2]]


def awkward_floats(rng, d):
    """Wide dynamic range plus rows of -0.0, mixed zeros, inf and NaN."""
    x = rng.standard_normal((3000, d)) * np.exp(rng.uniform(-40.0, 40.0, (3000, d)))
    x[:100] = -0.0
    x[100:200] = np.where(rng.random((100, d)) < 0.5, -0.0, 0.0)
    x[200:220, 0] = np.inf
    x[220:240, -1] = -np.inf
    x[240:260, 0] = np.inf
    x[240:260, -1] = -np.inf
    x[260:280, d // 2] = np.nan
    x[280:300] = x[280:300] * 1e270
    return x


class TestRowSum:
    """The row sums inside the families' log q and the partitions' classify
    give the reference closures' bits on extreme values (inf, NaN, -0.0,
    1e270), on every layout and batch size, and leave the batch as it is."""

    @staticmethod
    def _gaussian(d):
        betas = (0.5, 1.0) if d == 1 else None
        fam, part = gaussian_mixture_target(d, w=0.3, sigma=0.7, nu=1.3, betas=betas)
        return fam, part, reference_gaussian_log_q(d, w=0.3, sigma=0.7, nu=1.3)

    @pytest.mark.parametrize("d", range(1, 21))
    def test_float64_matches_numpy_sum(self, d):
        fam, part, ref = self._gaussian(d)
        rng = np.random.default_rng(500 + d)
        for x in layouts(awkward_floats(rng, d)):
            with np.errstate(invalid="ignore", over="ignore"):
                assert same_bits(fam.log_q(x), ref(x))
                assert same_bits(part.classify(x), reference_half_space_classify(x))

    @pytest.mark.parametrize("d", [1, 2, 5, 7, 8, 15, 31, 64, 301])
    def test_int8_spins_match_numpy_sum(self, d):
        fam, part = ising_target(d + 1 - d % 2, 0.9)
        ref = reference_ising_log_q(fam.dimension, 0.9)
        rng = np.random.default_rng(600 + d)
        x = (rng.integers(0, 2, size=(2000, fam.dimension)) * 2 - 1).astype(np.int8)
        x[:10] = 1
        x[10:20] = -1
        for y in layouts(x):
            assert same_bits(fam.log_q(y), ref(y))
            assert same_bits(part.classify(y), reference_spin_sign_classify(y))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int32, np.int64])
    def test_other_integer_dtypes_match_numpy_sum(self, dtype):
        _, part = ising_target(3, 1.0)
        rng = np.random.default_rng(700)
        for d in (1, 3, 8, 15, 40):
            x = rng.integers(0, 2 if dtype is bool else 100, size=(2000, d))
            x = x.astype(dtype)
            assert same_bits(part.classify(x), reference_spin_sign_classify(x))

    @pytest.mark.parametrize("dtype, d", [(np.float64, 2), (np.float64, 7), (np.int8, 15)])
    def test_one_row_and_large_batches_agree(self, dtype, d):
        # a one-row batch (one replica-exchange chain) and large ones give
        # each row the same value
        rng = np.random.default_rng(750 + d)
        x = rng.standard_normal((128 * d + 1, d))
        x[:2] = -0.0
        if dtype is np.float64:
            fam, part, _ = self._gaussian(d)
        else:
            x = np.sign(x).astype(dtype)
            fam, part = ising_target(d, 0.9)
        for f in (fam.log_q, part.classify):
            whole = f(x)
            for n in (1, 2, 128 * d - 1, 128 * d, 128 * d + 1):
                assert same_bits(f(x[:n]), whole[:n])

    def test_input_is_left_unchanged(self):
        fam, part, _ = self._gaussian(3)
        x = np.arange(12, dtype=float).reshape(4, 3) - 6.0
        fam.log_q(x), part.classify(x)
        assert np.array_equal(x, np.arange(12).reshape(4, 3) - 6.0)

    def test_empty_shapes(self):
        fam, part, ref = self._gaussian(9)
        x = np.zeros((0, 9))
        assert same_bits(fam.log_q(x), ref(x))
        assert same_bits(part.classify(x), reference_half_space_classify(x))
        spins, signs = ising_target(9, 1.0)
        x = np.zeros((0, 9), dtype=np.int8)
        assert same_bits(spins.log_q(x), reference_ising_log_q(9, 1.0)(x))
        assert same_bits(signs.classify(x), reference_spin_sign_classify(x))


def boundary_floats(rng, d):
    """Random points, points on the hyperplane sum(x) = 0, and zeros."""
    x = rng.standard_normal((4000, d)) * rng.choice([0.01, 1.0, 30.0], (4000, 1))
    x[:200, 1:] = rng.standard_normal((200, d - 1))
    x[:200, 0] = -x[:200, 1:].sum(axis=1)  # sums that land near or on 0
    x[200:300] = 0.0
    x[300:400] = -0.0
    x[400:500, : d // 2] = 1.0
    x[400:500, d // 2 : 2 * (d // 2)] = -1.0
    return x


@pytest.mark.parametrize("d", [2, 5, 7, 8, 12])
class TestClosuresMatchReference:
    def test_gaussian_log_q(self, d):
        fam, _ = gaussian_mixture_target(d, w=0.3, sigma=0.7, nu=1.3)
        ref = reference_gaussian_log_q(d, w=0.3, sigma=0.7, nu=1.3)
        rng = np.random.default_rng(800 + d)
        stage = fam.sample_stage(fam.n_stages, 2000, rng)
        for x in [*layouts(boundary_floats(rng, d)), stage]:
            assert same_bits(fam.log_q(x), ref(x))

    def test_half_space_classify(self, d):
        _, part = gaussian_mixture_target(d)
        rng = np.random.default_rng(900 + d)
        for x in layouts(boundary_floats(rng, d)):
            assert same_bits(part.classify(x), reference_half_space_classify(x))

    def test_spin_closures(self, d):
        # an even d is not a valid Ising family, but its classifier runs as is
        fam, part = ising_target(d + 1 - d % 2, 0.9)
        rng = np.random.default_rng(1000 + d)
        x = (rng.integers(0, 2, size=(3000, d)) * 2 - 1).astype(np.int8)
        for y in layouts(x):
            assert same_bits(part.classify(y), reference_spin_sign_classify(y))
        spins = fam.sample_initial(3000, rng)
        ref = reference_ising_log_q(fam.dimension, 0.9)
        for y in layouts(spins):
            assert same_bits(fam.log_q(y), ref(y))


class TestRunsMatchReferenceClosures:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind", ["gaussian", "ising", "ising-particles"])
    def test_run_is_byte_identical(self, kind, workers, monkeypatch):
        if kind == "gaussian":
            fam, part = gaussian_mixture_target(5)
            ref_fam = dataclasses.replace(fam, log_q=reference_gaussian_log_q(5))
            ref_classify = reference_half_space_classify
        else:
            if kind == "ising-particles":  # 6000 spin rows, not 16 levels
                monkeypatch.setattr(modesmc.engine, "COUNT_PATH_MAX_STATES", 0)
            fam, part = ising_target(15, 1.0)
            ref_fam = dataclasses.replace(fam, log_q=reference_ising_log_q(15, 1.0))
            ref_classify = reference_spin_sign_classify
        ref_part = dataclasses.replace(part, classify=ref_classify)
        reports = [
            # 6000 rows keep each of 3 workers' batches on the column path
            run(RunConfig(family=f, partition=p, n_particles=6000,
                          mutation_steps=4, seed=1234, workers=workers))
            for f, p in ((fam, part), (ref_fam, ref_part))
        ]
        assert_same_run(*reports)

    def test_same_run_check_sees_a_different_seed(self):
        fam, part = ising_target(5, 1.0)
        a, b = (
            run(RunConfig(family=fam, partition=part, n_particles=200,
                          mutation_steps=4, seed=seed))
            for seed in (1, 2)
        )
        with pytest.raises(AssertionError):
            assert_same_run(a, b)


class TestGaussianRows:
    """The mixture's lumping onto (s, r) rows and the lift back to R^d."""

    @staticmethod
    def _coords(x, d):
        u = np.ones(d) / math.sqrt(d)
        s = x @ u
        return s, np.linalg.norm(x - s[:, None] * u, axis=1)

    @pytest.mark.parametrize("d", [2, 5, 50])
    def test_lifted_rows_follow_the_stage_law(self, d):
        # lift(exact rows) against exact d-dim draws, by KS on one coordinate
        # and on a fixed direction, p > 0.001 each
        from scipy.stats import ks_2samp

        fam, _ = gaussian_mixture_target(d)
        rows, v = fam.lumping.family, len(fam.betas) // 2
        gen = rngmod.stream(50 + d, 0, rngmod.REPLICATE)
        lifted = fam.lumping.lift(rows.sample_stage(v, 20_000, gen), gen)
        exact = fam.sample_stage(v, 20_000, gen)
        direction = np.cos(np.arange(d) + 1.0)
        for f in (lambda x: x[:, 0], lambda x: x @ direction):
            assert ks_2samp(f(lifted), f(exact)).pvalue > 1e-3

    @pytest.mark.parametrize("d", [1, 2, 5, 50])
    def test_lift_keeps_coordinates_and_density(self, d):
        fam, part = gaussian_mixture_target(d, w=0.3, sigma=1.5, nu=0.7,
                                            betas=(0.5, 1.0))
        rows = fam.lumping.family
        gen = rngmod.stream(60 + d, 0, rngmod.REPLICATE)
        z = rows.sample_stage(1, 1_000, gen)
        x = fam.lumping.lift(z, gen)
        s, r = self._coords(x, d)
        assert np.allclose(s, z[:, 0], atol=1e-12)
        assert np.allclose(r, z[:, 1], atol=1e-12)
        assert np.allclose(fam.log_q(x), rows.log_q(z), rtol=1e-12, atol=1e-12)
        assert np.array_equal(part.classify(x), part.reduced.classify(z))

    @pytest.mark.parametrize("d", [2, 5, 50])
    def test_lift_keeps_cells_near_the_boundary(self, d):
        # |s| = 1e-12 beside r = 10: the lifted row sum keeps the sign of s
        fam, part = gaussian_mixture_target(d)
        z = np.column_stack([np.tile([1e-12, -1e-12], 500), np.full(1_000, 10.0)])
        x = fam.lumping.lift(z, rngmod.stream(70 + d, 0, rngmod.REPLICATE))
        assert np.array_equal(part.classify(x), part.reduced.classify(z))
        assert np.array_equal(part.reduced.classify(z), np.tile([0, 1], 500))

    @pytest.mark.parametrize("bad", [{"sigma": -1.0}, {"sigma": 1e-160},
                                     {"sigma": 1.3e154}, {"nu": 1.2e308}])
    def test_rejects_scales_past_float_range(self, bad):
        # 1/(2 sigma**2) or nu sqrt(d) past float range; sigma**2 itself
        # raised OverflowError at 1.3e154
        with pytest.raises(ValueError):
            gaussian_mixture_target(3, **bad)


class TestSpinLevels:
    """The spin model's lumping onto its magnetisation levels and the lift
    back to spin rows."""

    @pytest.mark.parametrize("d", [1, 5, 2047])
    def test_level_energies_are_log_q_of_lifted_rows(self, d):
        fam, part = ising_target(d, 1.3)
        levels, k = fam.lumping.family, np.arange(d + 1)
        x = fam.lumping.lift(k, rngmod.stream(90 + d, 0, rngmod.REPLICATE))
        assert x.dtype == np.int8 and x.shape == (d + 1, d)
        assert np.array_equal((x == 1).sum(axis=1), k)
        assert same_bits(levels.index_log_mass, fam.log_q(x))
        assert same_bits(levels.log_q(k), fam.log_q(x))
        assert np.array_equal(part.reduced.classify(k), part.classify(x))
        log_comb = [math.lgamma(d + 1) - math.lgamma(j + 1) - math.lgamma(d - j + 1)
                    for j in range(d + 1)]
        assert np.allclose(levels.index_log_mult, log_comb, rtol=1e-12, atol=1e-9)
        down, up = levels.index_picks
        assert np.array_equal(down * d, k[1:]) and np.array_equal(up * d, d - k[:-1])

    def test_energies_past_float_range_fail_when_run(self):
        # alpha = 1e308 overflows the level energies: building the family
        # is quiet, running it raises the engine's InvalidStateError
        fam, part = ising_target(5, 1e308)
        assert not np.all(np.isfinite(fam.lumping.family.index_log_mass))
        with pytest.raises(InvalidStateError):
            run(RunConfig(family=fam, partition=part, n_particles=10,
                          mutation_steps=1, seed=1))
