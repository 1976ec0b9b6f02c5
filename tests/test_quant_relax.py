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
from repro.quant import relax
from repro.quant.params import QUQParams, SubrangeSpec

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


def _reference_two_sided(neg, pos, bits, config):
    """Algorithm 2's main body as first written: one ``np.quantile`` call
    per side on every pass of the ``q`` recursion."""
    _EPS = relax._EPS
    quarter = 2 ** (bits - 2)
    neg_steps = quarter  # codes -quarter .. -1
    pos_steps = quarter - 1  # codes 0 .. quarter-1

    q = config.initial_quantile
    while True:
        raw_cn = max(neg.max(), _EPS) / neg_steps
        raw_cp = max(pos.max(), _EPS) / pos_steps
        raw_fn = max(np.quantile(neg, q), _EPS) / neg_steps
        raw_fp = max(np.quantile(pos, q), _EPS) / pos_steps

        d_cn, d_cp = relax_two_scale_factors(raw_cn, raw_cp)
        d_fn, d_fp = relax_two_scale_factors(raw_fn, raw_fp)
        s_f, s_c = d_fn / d_fp, d_cn / d_cp
        d_fp, d_cp = relax_two_scale_factors(d_fp, d_cp)
        d_fn, d_cn = s_f * d_fp, s_c * d_cp  # Mode A candidate

        ratio_neg, ratio_pos = d_cn / d_fn, d_cp / d_fp
        lam = config.acceptable_ratio

        if (
            ratio_neg < lam
            and ratio_pos < lam
            and q > config.acceptable_quantile + 1e-9
        ):
            q = q - config.quantile_step
            continue

        if ratio_neg < lam and raw_cn <= raw_fp:
            return QUQParams(
                bits,
                f_neg=SubrangeSpec(d_cn, quarter),
                f_pos=SubrangeSpec(d_fp, quarter),
                c_neg=None,
                c_pos=SubrangeSpec(d_cp / 2.0, 2 * quarter),
            )

        if ratio_pos < lam and raw_cp <= raw_fn:
            return QUQParams(
                bits,
                f_neg=SubrangeSpec(d_fn, quarter),
                f_pos=SubrangeSpec(d_cp, quarter),
                c_neg=SubrangeSpec(d_cn / 2.0, 2 * quarter),
                c_pos=None,
            )

        if ratio_neg < lam or ratio_pos < lam:
            d_neg, d_pos = relax_two_scale_factors(
                max(neg.max(), _EPS) / (2 * quarter),
                max(pos.max(), _EPS) / (2 * quarter - 1),
            )
            return QUQParams(
                bits,
                f_neg=None,
                f_pos=SubrangeSpec(d_pos, 2 * quarter),
                c_neg=SubrangeSpec(d_neg, 2 * quarter),
                c_pos=None,
            )

        return QUQParams(
            bits,
            f_neg=SubrangeSpec(d_fn, quarter),
            f_pos=SubrangeSpec(d_fp, quarter),
            c_neg=SubrangeSpec(d_cn, quarter),
            c_pos=SubrangeSpec(d_cp, quarter),
        )


def _reference_fit(x, bits, config):
    """:func:`progressive_relaxation` over :func:`_reference_two_sided`,
    with a one-sided tensor mirrored through a copy."""
    neg, pos = relax._positive_magnitudes(x)
    if neg.size == 0 and pos.size == 0:
        return relax._degenerate(bits, 1.0)
    if neg.size == 0:
        params = _reference_two_sided(pos.copy(), pos, bits, config)
        return relax._merge_mirror(params, keep_positive=True)
    if pos.size == 0:
        params = _reference_two_sided(neg, neg.copy(), bits, config)
        return relax._merge_mirror(params, keep_positive=False)
    return _reference_two_sided(neg, pos, bits, config)


#: The paper's default, a one-level recursion, a tight start, and the
#: ablation bench's acceptable-ratio and quantile sweeps.
CONFIG_VARIANTS = (
    [{}, {"initial_quantile": 0.97, "acceptable_quantile": 0.97},
     {"initial_quantile": 0.999, "acceptable_quantile": 0.95}]
    + [{"acceptable_ratio": lam} for lam in (1.0, 2.0, 4.0, 8.0, 16.0)]
    + [{"initial_quantile": q, "acceptable_quantile": min(0.95, q)}
       for q in (0.95, 0.97, 0.99, 0.999)]
)


@st.composite
def awkward_tensors(draw):
    """One-sided tensors of either sign, NaN/+-Inf mixes, single elements."""
    kind = draw(st.sampled_from(["onesided", "nonfinite", "single"]))
    if kind == "single":
        value = draw(st.floats(width=32))
        return np.array([value], dtype=np.float32)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    size = draw(st.integers(2, 4000))
    x = rng.standard_t(df=draw(st.sampled_from([2.0, 3.0, 30.0])), size=size)
    if kind == "onesided":
        x = draw(st.sampled_from([1.0, -1.0])) * np.abs(x)
        x[rng.random(size) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    else:
        bad = rng.random(size) < draw(st.sampled_from([0.01, 0.5, 0.99]))
        x[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
    return (x * draw(st.floats(min_value=1e-3, max_value=100.0))).astype(np.float32)


class TestQuantileLevelsReadOnce:
    """The recursion reads every level it can visit with one quantile
    call per side; the fit must equal the call-per-pass loop's."""

    @given(
        st.one_of(calibration_tensors(), awkward_tensors()),
        st.integers(3, 8),
        st.sampled_from(CONFIG_VARIANTS),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_a_quantile_call_per_pass(self, x, bits, variant):
        config = PRAConfig(**variant)
        assert progressive_relaxation(x, bits, config) == _reference_fit(x, bits, config)
