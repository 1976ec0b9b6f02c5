"""Drive the QUA accelerator model: integer datapath, area/power, memory.

Demonstrates the hardware half of the paper:

1. a GEMM through the bit-exact QUB pipeline (DU -> PE array -> QU),
2. the Table-4 area/power comparison of BaseQ vs QUQ accelerators,
3. the Figure-2 peak-memory argument for full quantization.

    python examples/accelerator_simulation.py
"""

import numpy as np

from repro.hw import (
    QUA,
    AcceleratorSpec,
    build_vit_block_dataflow,
    encode_tensor,
    evaluate,
    gemm_cycles,
    peak_memory_bytes,
)
from repro.models.configs import PAPER_CONFIGS
from repro.quant import progressive_relaxation
from repro.quant.qub import quantize_encode


def integer_gemm_demo():
    print("=== 1. Bit-exact integer GEMM through QUBs ===")
    rng = np.random.default_rng(0)
    x = rng.standard_t(df=4, size=(197, 384)) * 0.4  # ViT-S token activations
    w = rng.normal(size=(384, 384)) * 0.03

    ex = encode_tensor(x, bits=6)
    ew = encode_tensor(w, bits=6)
    qua = QUA()

    acc = qua.integer_gemm(ex, ew)  # pure int64 arithmetic
    result = acc * ex.base_delta * ew.base_delta
    reference = ex.to_float() @ ew.to_float()
    print(f"accumulators: dtype={acc.dtype}, range [{acc.min()}, {acc.max()}]")
    print(f"bit-exact vs dequantized float GEMM: "
          f"{np.allclose(result, reference, rtol=1e-9, atol=1e-9)}")
    print(f"cycles on 16x16 array: {gemm_cycles(197, 384, 384, 16):,}")

    # QU: requantize the output into its own QUQ parameters as QUB words.
    out_params = progressive_relaxation(result, 6)
    out_qubs, _, _ = quantize_encode(result, out_params, 6)
    print(f"requantized output: {out_qubs.shape} QUBs, "
          f"mode {out_params.mode.value}\n")


def area_power_demo():
    print("=== 2. Accelerator area/power (Table 4 model) ===")
    for bits in (6, 8):
        for array in (16, 64):
            base = evaluate(AcceleratorSpec("baseq", bits, array))
            quq = evaluate(AcceleratorSpec("quq", bits, array))
            print(
                f"{bits}-bit {array}x{array}: BaseQ {base.area_mm2:.3f} mm^2 / "
                f"{base.power_mw:.1f} mW -> QUQ {quq.area_mm2:.3f} mm^2 / "
                f"{quq.power_mw:.1f} mW "
                f"(+{100 * (quq.area_mm2 / base.area_mm2 - 1):.1f}% area)"
            )
    base8 = evaluate(AcceleratorSpec("baseq", 8, 64))
    quq6 = evaluate(AcceleratorSpec("quq", 6, 64))
    print(
        f"headline: 6-bit QUQ vs 8-bit BaseQ at 64x64 -> "
        f"{100 * (1 - quq6.area_mm2 / base8.area_mm2):.1f}% less area, "
        f"{100 * (1 - quq6.power_mw / base8.power_mw):.1f}% less power\n"
    )


def memory_demo():
    print("=== 3. Peak on-chip memory, PQ vs FQ (Figure 2 model) ===")
    for name in ("vit_s", "vit_l"):
        for batch in (1, 8):
            flow = build_vit_block_dataflow(PAPER_CONFIGS[name], batch)
            pq, pq_op = peak_memory_bytes(flow, "pq", bits=8)
            fq, _ = peak_memory_bytes(flow, "fq", bits=8)
            print(
                f"{name} batch {batch}: PQ {pq / 1024:8.0f} KiB (peak at {pq_op}) "
                f"vs FQ {fq / 1024:8.0f} KiB  (+{100 * (pq / fq - 1):.1f}%)"
            )


if __name__ == "__main__":
    integer_gemm_demo()
    area_power_demo()
    memory_demo()
