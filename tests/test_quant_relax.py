"""Tests for Algorithms 1 and 2 (relaxation / progressive relaxation).

Property-based tests assert the paper's structural guarantees: Algorithm 1
never shrinks a scale factor and always produces an exact power-of-two
ratio; Algorithm 2's output always satisfies the Eq. (4) constraint, the
2^b encoding-space budget, and full coverage of the calibration range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import Mode, PRAConfig, progressive_relaxation, relax_two_scale_factors

positive_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestAlgorithm1:
    @given(positive_floats, positive_floats)
    @settings(max_examples=200, deadline=None)
    def test_never_shrinks_and_power_of_two_ratio(self, d1, d2):
        r1, r2 = relax_two_scale_factors(d1, d2)
        assert r1 >= d1 * (1 - 1e-9)
        assert r2 >= d2 * (1 - 1e-9)
        log_ratio = np.log2(r2 / r1)
        assert abs(log_ratio - round(log_ratio)) < 1e-6

    def test_exact_power_untouched(self):
        assert relax_two_scale_factors(1.0, 4.0) == (1.0, 4.0)

    def test_equal_inputs_untouched(self):
        assert relax_two_scale_factors(0.7, 0.7) == (0.7, 0.7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            relax_two_scale_factors(0.0, 1.0)


@st.composite
def calibration_tensors(draw):
    """Random tensors spanning the distribution shapes seen in ViTs."""
    kind = draw(st.sampled_from(["gauss", "student", "onesided", "asymmetric"]))
    seed = draw(st.integers(0, 2**16))
    scale = draw(st.floats(min_value=1e-3, max_value=100.0))
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        x = rng.normal(size=4000)
    elif kind == "student":
        x = rng.standard_t(df=2.5, size=4000)
    elif kind == "onesided":
        x = np.abs(rng.standard_t(df=3, size=4000))
    else:
        x = np.where(rng.random(4000) < 0.8, rng.normal(size=4000) * 0.05, rng.normal(size=4000))
    return (x * scale).astype(np.float32)


class TestAlgorithm2Properties:
    @given(calibration_tensors(), st.sampled_from([4, 6, 8]))
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, x, bits):
        params = progressive_relaxation(x, bits)
        # Encoding budget: active levels always total 2^b.
        assert sum(s.levels for _, s in params.active()) == 2**bits
        # Eq. (4): every delta is a power-of-two multiple of the base.
        base = params.base_delta
        for _, spec in params.active():
            log_ratio = np.log2(spec.delta / base)
            assert abs(log_ratio - round(log_ratio)) < 1e-5
        # Shifts are recoverable integers.
        for subrange, _ in params.active():
            assert params.shift(subrange) >= 0

    @given(calibration_tensors(), st.sampled_from([4, 6, 8]))
    @settings(max_examples=60, deadline=None)
    def test_no_clipping_of_calibration_range(self, x, bits):
        params = progressive_relaxation(x, bits)
        positives = x[x > 0]
        negatives = x[x < 0]
        # Coverage must reach the extremes (relaxation only grows scales);
        # allow one coarse step of rounding slack.
        if positives.size:
            slack = max(
                (s.delta for _, s in params.active()), default=0.0
            )
            assert params.max_positive() + slack >= positives.max() * 0.999
        if negatives.size:
            slack = max((s.delta for _, s in params.active()), default=0.0)
            assert params.max_negative_magnitude() + slack >= -negatives.min() * 0.999


class TestModeSelection:
    def test_long_tailed_symmetric_gives_mode_a(self, rng):
        x = rng.standard_t(df=2, size=20000)
        params = progressive_relaxation(x, 6)
        assert params.mode is Mode.A

    def test_nonnegative_gives_mode_b(self, rng):
        x = rng.dirichlet(np.ones(50), size=100).reshape(-1)
        params = progressive_relaxation(x, 6)
        assert params.mode is Mode.B
        assert params.f_neg is None and params.c_neg is None

    def test_nonpositive_gives_mode_b_negative(self, rng):
        x = -np.abs(rng.standard_t(df=3, size=5000))
        params = progressive_relaxation(x, 6)
        assert params.mode is Mode.B
        assert params.f_pos is None and params.c_pos is None

    def test_gelu_like_gives_mode_c(self, rng):
        from scipy.special import erf

        g = rng.normal(size=20000)
        x = g * 0.5 * (1 + erf(g / np.sqrt(2)))
        params = progressive_relaxation(x, 4)
        assert params.mode is Mode.C
        assert params.c_neg is None  # bounded negative side merged

    def test_mild_gaussian_gives_mode_d(self, rng):
        x = rng.normal(size=20000)
        params = progressive_relaxation(x, 4)
        assert params.mode is Mode.D

    def test_mode_d_is_near_uniform(self, rng):
        # Mode D per-side scales must cover each side in 2^(b-1) steps.
        x = rng.normal(size=20000)
        params = progressive_relaxation(x, 6)
        if params.mode is Mode.D:
            assert params.max_positive() >= x.max() * 0.999
            assert params.max_negative_magnitude() >= -x.min() * 0.999

    def test_all_zero_tensor(self):
        params = progressive_relaxation(np.zeros(100), 6)
        assert sum(s.levels for _, s in params.active()) == 64


class TestNonFiniteInputs:
    """NaN and +-Inf are dropped before the fit, as every other
    calibration method drops them: the finite data alone decide."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
    def test_one_bad_entry_fits_the_finite_data(self, rng, bad):
        x = rng.normal(size=1000)
        expected = progressive_relaxation(x, 6)
        assert progressive_relaxation(np.append(x, bad), 6) == expected

    def test_all_nonfinite_fits_like_empty(self):
        bad = np.array([np.inf, -np.inf, np.nan, np.inf])
        assert progressive_relaxation(bad, 6) == progressive_relaxation(np.array([]), 6)


class TestQuantileRecursion:
    def test_quantile_relaxes_until_acceptable(self, rng):
        # A distribution whose 0.99 quantile is too close to the max (tiny
        # coarse/fine ratio) but separates at lower quantiles.
        bulk = rng.normal(size=10000) * 0.01
        shoulder = rng.normal(size=400) * 1.0
        x = np.concatenate([bulk, shoulder])
        tight = PRAConfig(initial_quantile=0.999, acceptable_quantile=0.95)
        params = progressive_relaxation(x, 6, tight)
        assert sum(s.levels for _, s in params.active()) == 64

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PRAConfig(acceptable_ratio=0.5)
        with pytest.raises(ValueError):
            PRAConfig(initial_quantile=0.9, acceptable_quantile=0.95)
        with pytest.raises(ValueError):
            PRAConfig(quantile_step=0.0)
