"""Post-training-quantization pipeline over a tapped model.

Reproduces the paper's experimental protocol (Section 6.1): a handful of
calibration images from the training set, per-tensor quantizer fitting at
every covered tap, then an optional Hessian-weighted grid search over the
scale factors (the "grid search similar to [PTQ4ViT]").

The ``method`` string selects the quantizer family per tap:

========  ==================================================================
baseq     symmetric uniform everywhere (the paper's BaseQ)
quq       quadruplet uniform quantization everywhere (the contribution)
biscaled  BiScaled-FxP two-scale quantization everywhere
fqvit     row-wise weights + log2 post-Softmax + affine activations
ptq4vit   twin uniform for post-Softmax/post-GELU taps, uniform elsewhere
========  ==================================================================

Coverage is orthogonal: ``partial`` quantizes only GEMM operands (green in
Figure 1), ``full`` quantizes every dataflow tap (Table 3's setting).
"""

from __future__ import annotations

import difflib
from pathlib import Path

import numpy as np

from ..autograd import Tensor, no_grad
from ..nn import Module
from .base import Quantizer
from .baselines.biscaled import BiScaledQuantizer
from .baselines.fqvit import Log2Quantizer
from .baselines.ptq4vit import TwinUniformQuantizer
from .observers import QuantEnv, TapKind, classify_tap, taps_for_coverage
from .quq import QUQQuantizer
from .relax import PRAConfig
from .uniform import AsymmetricUniformQuantizer, RowwiseUniformQuantizer, UniformQuantizer

__all__ = ["METHODS", "make_quantizer", "PTQPipeline"]

METHODS = ("baseq", "quq", "biscaled", "fqvit", "ptq4vit")


def make_quantizer(
    method: str, kind: TapKind, name: str, bits: int, pra_config: PRAConfig | None = None
) -> Quantizer:
    """Instantiate the quantizer ``method`` uses for a tap of ``kind``."""
    if method == "baseq":
        return UniformQuantizer(bits)
    if method == "quq":
        return QUQQuantizer(bits, config=pra_config)
    if method == "biscaled":
        return BiScaledQuantizer(bits)
    if method == "fqvit":
        if kind is TapKind.WEIGHT:
            # Per-output-channel scales; our Linear weights are (in, out).
            return RowwiseUniformQuantizer(bits, axis=0)
        if name.endswith(".probs"):
            return Log2Quantizer(bits)
        return AsymmetricUniformQuantizer(bits)
    if method == "ptq4vit":
        if name.endswith(".probs"):
            return TwinUniformQuantizer(bits, split="magnitude")
        if name.endswith(".fc2.input"):  # post-GELU activations
            return TwinUniformQuantizer(bits, split="sign")
        return UniformQuantizer(bits)
    raise ValueError(f"unknown method {method!r}; choices: {METHODS}")


class PTQPipeline:
    """Calibrate and apply one quantization method to a tapped model."""

    def __init__(
        self,
        model: Module,
        method: str = "quq",
        bits: int = 6,
        coverage: str = "full",
        pra_config: PRAConfig | None = None,
    ):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choices: {METHODS}")
        if coverage not in ("partial", "full"):
            raise ValueError(f"coverage must be 'partial' or 'full', got {coverage!r}")
        self.model = model
        self.method = method
        self.bits = bits
        self.coverage = coverage
        self.pra_config = pra_config
        self.env = QuantEnv()
        self.calibrated = False

    # ------------------------------------------------------------------
    def _discover_taps(self, sample: np.ndarray) -> list[str]:
        """Run one forward pass to enumerate tap names, then filter."""
        self.env.phase = "off"
        self.env.seen_taps.clear()
        self.model.set_tap_dispatcher(self.env)
        self.model.eval()
        with no_grad():
            self.model(Tensor(sample[:1]))
        covered = [
            name
            for name in sorted(self.env.seen_taps)
            if taps_for_coverage(classify_tap(name), self.coverage)
        ]
        return covered

    def calibrate(self, calib_images: np.ndarray, batch_size: int = 32) -> "PTQPipeline":
        """Fit one quantizer per covered tap from calibration activations.

        Idempotent: recalibrating replaces every previously fitted
        quantizer and drops all stale observations, so the pipeline ends
        up exactly as if this were the first call.
        """
        self.calibrated = False
        self.env.quantizers = {}
        self.env.clear_observations()
        covered = self._discover_taps(calib_images)
        weight_taps = [n for n in covered if classify_tap(n) is TapKind.WEIGHT]
        activation_taps = [n for n in covered if classify_tap(n) is not TapKind.WEIGHT]

        # Observe activations over the calibration set.
        self.env.phase = "observe"
        self.env.watched = set(activation_taps)
        self.env.clear_observations()
        with no_grad():
            for start in range(0, len(calib_images), batch_size):
                self.model(Tensor(calib_images[start : start + batch_size]))

        quantizers: dict[str, Quantizer] = {}
        for name in activation_taps:
            data = self.env.observed(name)
            quantizer = make_quantizer(
                self.method, classify_tap(name), name, self.bits, self.pra_config
            )
            quantizers[name] = quantizer.fit(data)

        # Weights are quantized directly (no observation needed) — the tap
        # passes the parameter tensor itself.
        parameters = dict(self.model.named_parameters())
        for name in weight_taps:
            param_name = name.split(".", 1)[1] if "." in name else name
            data = parameters[param_name].data
            quantizer = make_quantizer(
                self.method, TapKind.WEIGHT, name, self.bits, self.pra_config
            )
            quantizers[name] = quantizer.fit(data)

        self.env.quantizers = quantizers
        self.env.phase = "quantize"
        self.env.watched = None
        self.env.clear_observations()
        self.env.invalidate_weight_cache()
        self.calibrated = True
        self.warm_weight_cache()
        return self

    # ------------------------------------------------------------------
    def quantizer_for(self, name: str) -> Quantizer:
        if not self.calibrated:
            raise RuntimeError("calibrate() must run before querying quantizers")
        try:
            return self.env.quantizers[name]
        except KeyError:
            near = difflib.get_close_matches(name, self.env.quantizers, n=3, cutoff=0.3)
            hint = f"; nearest taps: {near}" if near else ""
            raise KeyError(
                f"no quantizer fitted for tap {name!r} "
                f"({len(self.env.quantizers)} taps covered){hint}"
            ) from None

    def tap_names(self) -> list[str]:
        if not self.calibrated:
            raise RuntimeError("calibrate() must run before querying taps")
        return sorted(self.env.quantizers)

    def warm_weight_cache(self) -> int:
        """Pre-compute the fake-quantized array for every weight tap.

        Weight quantizers are fitted on the parameter tensors themselves
        and those tensors never change between calibrations, so the
        quantize-dequantize round trip is hoisted out of the per-batch
        forward pass: each weight tap replays its cached array until a
        recalibration, a :meth:`load_quantizers`, a quantizer refit, or a
        weight update invalidates it.  Returns the number of weight taps
        cached.  Idempotent and cheap when the cache is already warm.
        """
        if not self.calibrated:
            raise RuntimeError("calibrate() must run before warm_weight_cache()")
        parameters = dict(self.model.named_parameters())
        count = 0
        for name, quantizer in self.env.quantizers.items():
            if classify_tap(name) is not TapKind.WEIGHT:
                continue
            param_name = name.split(".", 1)[1] if "." in name else name
            param = parameters.get(param_name)
            if param is None:
                continue  # tap without a live parameter (defensive)
            self.env.cached_fake_weight(name, quantizer, param.data)
            count += 1
        return count

    def weight_cache_info(self) -> dict:
        """Cache statistics (hits/misses/entries) for observability."""
        return self.env.weight_cache_info()

    def detach(self) -> None:
        """Restore the model to its float behaviour."""
        self.env.phase = "off"
        self.model.set_tap_dispatcher(None)

    def attach(self) -> None:
        """(Re-)enable fake quantization on the model."""
        if not self.calibrated:
            raise RuntimeError("calibrate() must run before attach()")
        self.model.set_tap_dispatcher(self.env)
        self.env.phase = "quantize"

    # ------------------------------------------------------------------
    def save_quantizers(
        self, path: str | Path, arrays: dict[str, np.ndarray] | None = None
    ) -> Path:
        """Persist the fitted quantizer state (``.npz`` + JSON metadata).

        The archive records the pipeline's method/bits/coverage alongside
        every tap's quantizer parameters; :meth:`load_quantizers` restores
        it bit-exactly without re-running calibration.  ``arrays`` ride
        along under the same checksum (see ``save_quantizer_states``).
        """
        from .serialize import save_quantizer_states

        if not self.calibrated:
            raise RuntimeError("calibrate() must run before save_quantizers()")
        header = {"method": self.method, "bits": self.bits, "coverage": self.coverage}
        return save_quantizer_states(
            self.env.quantizers, path, header=header, arrays=arrays
        )

    def load_quantizers(self, path: str | Path) -> "PTQPipeline":
        """Warm-start from :meth:`save_quantizers` output (skips calibration).

        Validates that the archive was produced by a pipeline with the
        same method/bits/coverage, installs the quantizers, and leaves the
        model running with fake quantization attached — the same end state
        as :meth:`calibrate`.  An archive that is corrupt or carries no
        checksum raises ``ChecksumError`` (see ``load_quantizer_states``).
        """
        from .serialize import load_quantizer_states

        header, quantizers, _ = load_quantizer_states(path)
        for field in ("method", "bits", "coverage"):
            expected, found = getattr(self, field), header.get(field)
            if found != expected:
                raise ValueError(
                    f"quantizer state at {path} was fitted with "
                    f"{field}={found!r}, but this pipeline uses {expected!r}"
                )
        self.env.quantizers = quantizers
        self.env.clear_observations()
        self.env.watched = None
        self.env.phase = "quantize"
        self.env.invalidate_weight_cache()
        self.model.set_tap_dispatcher(self.env)
        self.calibrated = True
        self.warm_weight_cache()
        return self

    # ------------------------------------------------------------------
    def average_bits_per_element(self) -> float:
        """Mean storage cost across fitted quantizers (memory accounting)."""
        if not self.calibrated:
            raise RuntimeError("calibrate() must run first")
        costs = [q.bits_per_element() for q in self.env.quantizers.values()]
        return float(np.mean(costs)) if costs else float(self.bits)
