"""Extension bench: the QUA integer datapath end to end.

Not a table in the paper, but it demonstrates the property Section 4 rests
on: the QUB-encoded integer pipeline (DU -> PE array -> QU) is bit-exact
against the dequantized-float reference, and the cycle model shows how the
paper's two array sizes trade throughput.  Also quantifies the
encoding-space overlap wastage Principle 1 of Section 3.3 tries to limit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_table
from repro.hw import QUA, encode_tensor, gemm_cycles
from repro.models.configs import PAPER_CONFIGS
from repro.quant import QUQQuantizer

from conftest import save_result


def test_integer_gemm_bit_exact_at_scale(benchmark, rng=np.random.default_rng(0)):
    x = rng.standard_t(df=4, size=(197, 384)) * 0.4  # a ViT-S qkv GEMM input
    w = rng.normal(size=(384, 384)) * 0.03
    ex = encode_tensor(x, 8)
    ew = encode_tensor(w, 8)
    qua = QUA()

    acc = benchmark(qua.integer_gemm, ex, ew)
    hw = acc.astype(np.float64) * ex.base_delta * ew.base_delta
    ref = ex.to_float() @ ew.to_float()
    # The integer path is the exact one; the float64 reference loses a few
    # ulps to accumulation rounding, so allow a tiny absolute tolerance for
    # near-cancelling outputs.
    np.testing.assert_allclose(hw, ref, rtol=1e-9, atol=1e-9)


def test_cycle_model_for_paper_gemms(benchmark):
    def build():
        rows = []
        for name in ("vit_s", "vit_l"):
            config = PAPER_CONFIGS[name]
            tokens, dim = config.num_tokens, config.embed_dim
            for array in (16, 64):
                rows.append(
                    [
                        name, f"{array}x{array}",
                        gemm_cycles(tokens, dim, 3 * dim, array),  # qkv
                        gemm_cycles(tokens, dim, 4 * dim, array),  # fc1
                    ]
                )
        return rows

    rows = benchmark(build)
    save_result(
        "accelerator_cycles",
        format_table(
            ["Model", "PE array", "qkv GEMM cycles", "fc1 GEMM cycles"],
            rows,
            title="Extension: weight-stationary cycle counts per GEMM",
        ),
    )
    by_key = {(r[0], r[1]): r[2] for r in rows}
    assert by_key[("vit_s", "64x64")] < by_key[("vit_s", "16x16")]


def test_encoding_overlap_wastage(benchmark, rng=np.random.default_rng(1)):
    """Fraction of coarse codes whose values the fine subrange already
    represents — the wastage Principle 1 (ratio >= lambda_A) bounds."""

    def measure():
        rows = []
        for df, label in ((1.5, "very long tail"), (3.0, "long tail"), (30.0, "near-gaussian")):
            x = rng.standard_t(df=df, size=30000)
            params = QUQQuantizer(6).fit(x).params
            wasted = total = 0
            fine_pos = params.positive_fine_bound()
            fine_neg = params.negative_fine_bound()
            for subrange, spec in params.active():
                if subrange.is_fine:
                    continue
                codes = np.arange(1, spec.levels)
                values = codes * spec.delta
                bound = fine_neg if subrange.is_negative else fine_pos
                wasted += int((values <= bound).sum())
                total += len(codes)
            rows.append([label, params.mode.value, total, wasted,
                         f"{100 * wasted / total:.1f}%" if total else "-"])
        return rows

    rows = benchmark(measure)
    save_result(
        "ablation_overlap_wastage",
        format_table(
            ["Distribution", "Mode", "Coarse codes", "Overlapping", "Wastage"],
            rows,
            title="Ablation: encoding-space overlap between coarse and fine subranges",
        ),
    )
    # With lambda_A = 4 the wastage stays bounded (< half the coarse codes).
    for row in rows:
        if row[2]:
            assert row[3] <= row[2] * 0.5
