"""Analysis utilities: distributions (Fig. 3), attention maps (Fig. 7), reporting."""

from .distributions import (
    FIGURE3_TENSORS,
    ascii_histogram,
    capture_figure3_tensors,
    histogram,
)
from .attention_maps import (
    ascii_heatmap,
    attention_rollout,
    crucial_region_energy,
    rollout_correlation,
    rollout_for_images,
)
from .reporting import format_float, format_table
from .sensitivity import kind_sensitivity, tap_sensitivity
from .corruption import (
    CorruptionSweepConfig,
    RecoveryCurveConfig,
    format_corruption_sweep,
    format_recovery_report,
    run_corruption_sweep,
    run_recovery_curve,
)

__all__ = [
    "FIGURE3_TENSORS",
    "capture_figure3_tensors",
    "histogram",
    "ascii_histogram",
    "attention_rollout",
    "rollout_for_images",
    "crucial_region_energy",
    "rollout_correlation",
    "ascii_heatmap",
    "format_table",
    "format_float",
    "kind_sensitivity",
    "tap_sensitivity",
    "CorruptionSweepConfig",
    "run_corruption_sweep",
    "format_corruption_sweep",
    "RecoveryCurveConfig",
    "run_recovery_curve",
    "format_recovery_report",
]
