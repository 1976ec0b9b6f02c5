"""Quantization: QUQ (the paper's contribution), baselines, and the PTQ pipeline.

A calibrated pipeline persists as one checksummed quantizer-state archive
(:mod:`.serialize`); the deployable QUQ artifact is that archive with the
weights' QUB bitstreams added (:class:`repro.backend.PackedWeightStore`).
"""

from .base import Quantizer
from .params import Mode, QUQParams, Subrange, SubrangeSpec
from .relax import PRAConfig, progressive_relaxation, relax_two_scale_factors
from .quq import SUBRANGE_IDS, QUQQuantizer, QuantizedTensor, quantize_with_params
from .qub import (
    MAX_SHIFT,
    FCRegisters,
    SpaceRegister,
    decode,
    encode,
    legalize_for_hardware,
)
from .uniform import (
    AsymmetricUniformQuantizer,
    RowwiseUniformQuantizer,
    UniformQuantizer,
    symmetric_uniform_dequantize,
    symmetric_uniform_quantize,
)
from .baselines import BiScaledQuantizer, Log2Quantizer, TwinUniformQuantizer
from .observers import QuantEnv, TapKind, TapRecorder, classify_tap, taps_for_coverage
from .qmodel import METHODS, PTQPipeline, make_quantizer
from .hessian import DEFAULT_GRID, hessian_refine
from .metrics import cosine_similarity, mse, sqnr_db
from .serialize import (
    ChecksumError,
    load_quantizer_states,
    quantizer_from_state,
    quantizer_state,
    save_quantizer_states,
)
from .mixed import allocate_mixed_precision
from .calibration import (
    CALIBRATION_STRATEGIES,
    absmax_bound,
    calibrated_uniform,
    kl_bound,
    mse_bound,
    percentile_bound,
)
from .drift import (
    DriftMonitor,
    DriftScores,
    DriftThresholds,
    DriftVerdict,
    TapFingerprint,
    fingerprint_pipeline,
    population_stability_index,
)

__all__ = [
    "Quantizer",
    "Mode",
    "QUQParams",
    "Subrange",
    "SubrangeSpec",
    "PRAConfig",
    "progressive_relaxation",
    "relax_two_scale_factors",
    "QUQQuantizer",
    "QuantizedTensor",
    "quantize_with_params",
    "SUBRANGE_IDS",
    "FCRegisters",
    "SpaceRegister",
    "encode",
    "decode",
    "legalize_for_hardware",
    "MAX_SHIFT",
    "UniformQuantizer",
    "AsymmetricUniformQuantizer",
    "RowwiseUniformQuantizer",
    "symmetric_uniform_quantize",
    "symmetric_uniform_dequantize",
    "BiScaledQuantizer",
    "Log2Quantizer",
    "TwinUniformQuantizer",
    "QuantEnv",
    "TapRecorder",
    "TapKind",
    "classify_tap",
    "taps_for_coverage",
    "METHODS",
    "PTQPipeline",
    "make_quantizer",
    "DEFAULT_GRID",
    "hessian_refine",
    "mse",
    "sqnr_db",
    "cosine_similarity",
    "quantizer_state",
    "quantizer_from_state",
    "save_quantizer_states",
    "ChecksumError",
    "load_quantizer_states",
    "allocate_mixed_precision",
    "CALIBRATION_STRATEGIES",
    "absmax_bound",
    "percentile_bound",
    "mse_bound",
    "kl_bound",
    "calibrated_uniform",
    "DriftMonitor",
    "DriftScores",
    "DriftThresholds",
    "DriftVerdict",
    "TapFingerprint",
    "fingerprint_pipeline",
    "population_stability_index",
]
