"""The progressive relaxation algorithm (Algorithms 1 and 2 of the paper).

Determines the four QUQ scale factors from calibration data such that

* the Eq. (4) constraint holds (every scale factor is a power-of-two
  multiple of a shared base delta), and
* the two guiding principles of Section 3.3 are traded off: the
  coarse/fine ratio should be large (principle 1, limits encoding-space
  wastage from subrange overlap) while the fine subrange covers as many
  elements as possible (principle 2).

Mode selection follows Algorithm 2's four branches: recursive relaxation of
the quantile ``q`` (Mode A retry), the two coarse-merge branches (Mode C)
and the piecewise-uniform fallback (Mode D).  One-sided tensors follow the
paper's Mode B recipe: the tensor is mirrored, the two-sided algorithm is
applied, and the mirror-side subranges are merged into their same-
granularity partners — which, as in the Mode C branch, halves the
surviving scale factor because the absorbed encoding space doubles the
resolution available over the same coverage.
"""

from __future__ import annotations

import numpy as np

from .params import QUQParams, Subrange, SubrangeSpec

__all__ = ["relax_two_scale_factors", "progressive_relaxation", "PRAConfig"]

_EPS = 1e-12


def relax_two_scale_factors(delta1: float, delta2: float) -> tuple[float, float]:
    """Algorithm 1: make ``delta2 / delta1`` an exact power of two.

    The ratio is rounded in the logarithmic domain; whichever side the
    rounding falls on, the adjusted scale factor only ever *grows*, so the
    relaxation never introduces additional clipping.
    """
    if delta1 <= 0 or delta2 <= 0:
        raise ValueError(f"scale factors must be positive, got {delta1}, {delta2}")
    log_ratio = np.log2(delta2 / delta1)
    rounded = float(np.rint(log_ratio))
    if rounded > log_ratio:
        return delta1, float(2.0**rounded * delta1)  # make delta2 larger
    return float(2.0**-rounded * delta2), delta2  # make delta1 larger


class PRAConfig:
    """Hyperparameters of Algorithm 2 (paper Section 6.1 defaults)."""

    def __init__(
        self,
        acceptable_ratio: float = 4.0,
        initial_quantile: float = 0.99,
        acceptable_quantile: float = 0.95,
        quantile_step: float = 0.01,
    ):
        if acceptable_ratio < 1.0:
            raise ValueError("acceptable_ratio must be >= 1")
        if not 0.0 < acceptable_quantile <= initial_quantile <= 1.0:
            raise ValueError(
                "need 0 < acceptable_quantile <= initial_quantile <= 1, got "
                f"{acceptable_quantile}, {initial_quantile}"
            )
        if quantile_step <= 0:
            raise ValueError("quantile_step must be positive")
        self.acceptable_ratio = acceptable_ratio
        self.initial_quantile = initial_quantile
        self.acceptable_quantile = acceptable_quantile
        self.quantile_step = quantile_step


def _positive_magnitudes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a tensor into negative magnitudes and positive values.

    NaN and Inf are dropped, the policy every calibration method shares
    (:func:`repro.quant.calibration._finite_magnitudes`): the finite data
    alone fit the parameters.
    """
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    # Masked, not filtered: a filtered float64 copy of each tap raised
    # calibration's peak memory, which is near the process peak.
    finite = np.isfinite(flat)
    return -flat[(flat < 0) & finite], flat[(flat > 0) & finite]


def _two_sided(
    neg: np.ndarray, pos: np.ndarray, bits: int, config: PRAConfig
) -> QUQParams:
    """Algorithm 2's main body for data present on both sides of zero.

    ``neg`` and ``pos`` may be the same array (a mirrored one-sided
    tensor); its statistics are then read once.
    """
    quarter = 2 ** (bits - 2)
    neg_steps = quarter  # codes -quarter .. -1
    pos_steps = quarter - 1  # codes 0 .. quarter-1

    # Every q the recursion can visit, by its own float arithmetic, read
    # with one np.quantile call (one partial sort) per side: a call per
    # pass would partition the side again.  The order statistics, and so
    # the fit, are the same.
    levels = [config.initial_quantile]
    while levels[-1] > config.acceptable_quantile + 1e-9:
        levels.append(levels[-1] - config.quantile_step)
    neg_max, neg_q = neg.max(), np.quantile(neg, levels)
    if pos is neg:
        pos_max, pos_q = neg_max, neg_q
    else:
        pos_max, pos_q = pos.max(), np.quantile(pos, levels)
    # Raw (pre-relaxation) coarse scale factors; the branch *boundary*
    # tests below use the raw factors, because the relaxation rounds can
    # inflate a scale factor by up to ~2.6x and spuriously trigger a merge
    # on near-symmetric data.
    raw_cn = max(neg_max, _EPS) / neg_steps
    raw_cp = max(pos_max, _EPS) / pos_steps

    for level, (neg_fine, pos_fine) in enumerate(zip(neg_q, pos_q)):
        raw_fn = max(neg_fine, _EPS) / neg_steps
        raw_fp = max(pos_fine, _EPS) / pos_steps

        # Relaxation round 1: coarse scale factors from the extreme values.
        d_cn, d_cp = relax_two_scale_factors(raw_cn, raw_cp)
        # Relaxation round 2: fine scale factors from the q-th quantiles.
        d_fn, d_fp = relax_two_scale_factors(raw_fn, raw_fp)
        # Record cross-sign ratios, then relaxation round 3 ties the
        # positive fine and coarse factors together; the negative side is
        # reconstructed through the recorded (power-of-two) ratios.
        s_f, s_c = d_fn / d_fp, d_cn / d_cp
        d_fp, d_cp = relax_two_scale_factors(d_fp, d_cp)
        d_fn, d_cn = s_f * d_fp, s_c * d_cp  # Mode A candidate

        ratio_neg, ratio_pos = d_cn / d_fn, d_cp / d_fp
        lam = config.acceptable_ratio

        # Branch 1: both partitions waste encoding space -> relax q.
        if ratio_neg < lam and ratio_pos < lam and level + 1 < len(levels):
            continue

        # Branch 2: negative partition unsuitable and its whole range small
        # enough to live at fine resolution -> Mode C.
        if ratio_neg < lam and raw_cn <= raw_fp:
            return QUQParams(
                bits,
                f_neg=SubrangeSpec(d_cn, quarter),
                f_pos=SubrangeSpec(d_fp, quarter),
                c_neg=None,
                c_pos=SubrangeSpec(d_cp / 2.0, 2 * quarter),
            )

        # Branch 3: positive partition unsuitable and its whole range small
        # enough to live at fine resolution -> Mode C.
        if ratio_pos < lam and raw_cp <= raw_fn:
            return QUQParams(
                bits,
                f_neg=SubrangeSpec(d_fn, quarter),
                f_pos=SubrangeSpec(d_cp, quarter),
                c_neg=SubrangeSpec(d_cn / 2.0, 2 * quarter),
                c_pos=None,
            )

        # Branch 4: fallback -> Mode D.  Each side degenerates to uniform
        # quantization over its own range: the fine encoding space (all
        # 2^(b-1) codes) is assigned to the positive side and the coarse
        # space to the negative side (Figure 4 Mode D), with the per-side
        # scales re-derived for the doubled level count and relaxed to a
        # power-of-two ratio.  With equal ranges this reproduces symmetric
        # uniform quantization exactly (the paper's special case
        # d_C- == d_F+).
        if ratio_neg < lam or ratio_pos < lam:
            d_neg, d_pos = relax_two_scale_factors(
                max(neg_max, _EPS) / (2 * quarter),
                max(pos_max, _EPS) / (2 * quarter - 1),
            )
            return QUQParams(
                bits,
                f_neg=None,
                f_pos=SubrangeSpec(d_pos, 2 * quarter),
                c_neg=SubrangeSpec(d_neg, 2 * quarter),
                c_pos=None,
            )

        # Mode A: the partition is acceptable as-is.
        return QUQParams(
            bits,
            f_neg=SubrangeSpec(d_fn, quarter),
            f_pos=SubrangeSpec(d_fp, quarter),
            c_neg=SubrangeSpec(d_cn, quarter),
            c_pos=SubrangeSpec(d_cp, quarter),
        )


def _merge_mirror(params: QUQParams, keep_positive: bool) -> QUQParams:
    """Mode B: drop the mirror side, folding its encoding space across zero.

    Absorbing the mirrored subrange doubles the survivor's level count; its
    scale factor halves so the doubled resolution covers the same range
    (the same accounting as the Mode C merge in Algorithm 2).
    """

    def fold(keep: SubrangeSpec | None, drop: SubrangeSpec | None):
        if keep is None and drop is None:
            return None
        if keep is None:
            # The surviving side lost this granularity in the two-sided
            # run (Mode C/D); re-home the mirror's levels at its scale.
            return SubrangeSpec(drop.delta, drop.levels)
        if drop is None:
            return keep
        return SubrangeSpec(keep.delta / 2.0, keep.levels + drop.levels)

    if keep_positive:
        return QUQParams(
            params.bits,
            f_neg=None,
            f_pos=fold(params.f_pos, params.f_neg),
            c_neg=None,
            c_pos=fold(params.c_pos, params.c_neg),
        )
    return QUQParams(
        params.bits,
        f_neg=fold(params.f_neg, params.f_pos),
        f_pos=None,
        c_neg=fold(params.c_neg, params.c_pos),
        c_pos=None,
    )


def _degenerate(bits: int, scale: float) -> QUQParams:
    """Parameters for an all-zero tensor: symmetric uniform, Mode D shape."""
    half = 2 ** (bits - 1)
    delta = max(scale, _EPS)
    return QUQParams(
        bits,
        f_neg=None,
        f_pos=SubrangeSpec(delta, half),
        c_neg=SubrangeSpec(delta, half),
        c_pos=None,
    )


def progressive_relaxation(
    x: np.ndarray, bits: int, config: PRAConfig | None = None
) -> QUQParams:
    """Algorithm 2: fit QUQ parameters to calibration tensor ``x``."""
    config = config or PRAConfig()
    neg, pos = _positive_magnitudes(x)

    if neg.size == 0 and pos.size == 0:
        return _degenerate(bits, 1.0)
    if neg.size == 0:
        # Non-negative tensor: mirror, solve two-sided, drop the mirror.
        params = _two_sided(pos, pos, bits, config)
        return _merge_mirror(params, keep_positive=True)
    if pos.size == 0:
        params = _two_sided(neg, neg, bits, config)
        return _merge_mirror(params, keep_positive=False)
    return _two_sided(neg, pos, bits, config)
