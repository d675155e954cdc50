"""Eq. 2 error profiling, Gaussian fits, NM/NA measurement."""

import numpy as np
import pytest

from repro.approx import (MultiplierModel, arithmetic_errors,
                          is_gaussian_like, measure_noise_parameters,
                          profile_multiplier, sample_operands)


@pytest.fixture(scope="module")
def trunc_mult():
    return MultiplierModel("t8", "trunc", {"drop_bits": 8})


@pytest.fixture(scope="module")
def exact_mult():
    return MultiplierModel("acc", "exact")


class TestSampling:
    def test_uniform_range(self):
        rng = np.random.default_rng(0)
        ops = sample_operands(rng, 10_000)
        assert ops.min() >= 0 and ops.max() <= 255
        assert abs(ops.mean() - 127.5) < 3

    def test_empirical_pool(self):
        rng = np.random.default_rng(0)
        pool = np.array([5.0, 5.0, 250.0])
        ops = sample_operands(rng, 1000, pool)
        assert set(np.unique(ops)) <= {5, 250}

    def test_empirical_pool_clipped(self):
        rng = np.random.default_rng(0)
        ops = sample_operands(rng, 100, np.array([300.0, -7.0]))
        assert set(np.unique(ops)) <= {0, 255}

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            sample_operands(np.random.default_rng(0), 10, np.array([]))


class TestArithmeticErrors:
    def test_exact_is_zero(self, exact_mult):
        errors = arithmetic_errors(exact_mult, samples=1000)
        assert not errors.any()

    def test_shape(self, trunc_mult):
        errors = arithmetic_errors(trunc_mult, samples=500, accumulations=9)
        assert errors.shape == (500,)

    def test_deterministic_given_seed(self, trunc_mult):
        a = arithmetic_errors(trunc_mult, samples=100, seed=3)
        b = arithmetic_errors(trunc_mult, samples=100, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_accumulation_scales_std_like_sqrt(self, trunc_mult):
        e1 = arithmetic_errors(trunc_mult, samples=20_000, accumulations=1)
        e9 = arithmetic_errors(trunc_mult, samples=20_000, accumulations=9)
        e81 = arithmetic_errors(trunc_mult, samples=20_000, accumulations=81)
        assert e9.std() == pytest.approx(3 * e1.std(), rel=0.15)
        assert e81.std() == pytest.approx(9 * e1.std(), rel=0.15)

    def test_accumulation_scales_mean_linearly(self, trunc_mult):
        e1 = arithmetic_errors(trunc_mult, samples=20_000, accumulations=1)
        e9 = arithmetic_errors(trunc_mult, samples=20_000, accumulations=9)
        assert e9.mean() == pytest.approx(9 * e1.mean(), rel=0.1)

    def test_invalid_accumulations(self, trunc_mult):
        with pytest.raises(ValueError):
            arithmetic_errors(trunc_mult, accumulations=0)

    def test_zero_samples_rejected(self, trunc_mult):
        # Rejected in arithmetic_errors, before is_gaussian_like indexes
        # errors[0] of an empty array.
        with pytest.raises(ValueError, match="samples must be >= 1"):
            profile_multiplier(trunc_mult, samples=0)


class TestGaussianLike:
    def test_normal_accepted(self, rng):
        gaussian, _ = is_gaussian_like(rng.normal(size=20_000))
        assert gaussian

    def test_constant_accepted(self):
        gaussian, pvalue = is_gaussian_like(np.zeros(100))
        assert gaussian and pvalue == 1.0

    def test_heavily_skewed_rejected(self, rng):
        gaussian, _ = is_gaussian_like(rng.exponential(size=20_000) ** 2)
        assert not gaussian

    def test_accumulated_uniform_becomes_gaussian(self, trunc_mult):
        single = arithmetic_errors(trunc_mult, samples=50_000,
                                   accumulations=1)
        accumulated = arithmetic_errors(trunc_mult, samples=50_000,
                                        accumulations=81)
        assert is_gaussian_like(accumulated)[0]
        # single-product truncation error is uniform: kurtosis ~ -1.2,
        # still within the paper's practical 'Gaussian-like' band
        assert np.abs(accumulated.std() / single.std() - 9.0) < 1.5


class TestProfile:
    def test_profile_fields(self, trunc_mult):
        profile = profile_multiplier(trunc_mult, accumulations=9,
                                     samples=5000)
        assert profile.component == "t8"
        assert profile.accumulations == 9
        assert profile.errors.shape == (5000,)
        assert profile.fit.std > 0
        counts, centres = profile.histogram(bins=21)
        assert counts.sum() == 5000
        assert len(centres) == 21

    def test_gaussian_fit_pdf(self, trunc_mult):
        profile = profile_multiplier(trunc_mult, accumulations=81,
                                     samples=5000)
        pdf = profile.fit.pdf(np.array([profile.fit.mean]))
        assert pdf[0] == pytest.approx(
            1 / (np.sqrt(2 * np.pi) * profile.fit.std), rel=1e-6)


class TestNoiseParameters:
    def test_exact_zero(self, exact_mult):
        na, nm = measure_noise_parameters(exact_mult, samples=5000)
        assert na == 0.0 and nm == 0.0

    def test_truncation_negative_bias(self, trunc_mult):
        na, nm = measure_noise_parameters(trunc_mult, samples=20_000)
        assert na < 0      # uncompensated truncation underestimates
        assert 0 < nm < 0.01

    def test_normalised_by_range(self, trunc_mult):
        # restricting operands to small values shrinks R(X), raising NM
        small_pool = np.arange(1, 32, dtype=np.float64)
        na_small, nm_small = measure_noise_parameters(
            trunc_mult, samples=20_000, inputs_a=small_pool,
            inputs_b=small_pool)
        _, nm_uniform = measure_noise_parameters(trunc_mult, samples=20_000)
        assert nm_small > nm_uniform

    def test_zero_samples_rejected(self, trunc_mult):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            measure_noise_parameters(trunc_mult, samples=0)

    def test_degenerate_inputs_raise(self, trunc_mult):
        pool = np.array([1.0])
        with pytest.raises(ValueError, match="degenerate"):
            measure_noise_parameters(trunc_mult, samples=100,
                                     inputs_a=pool, inputs_b=pool)
