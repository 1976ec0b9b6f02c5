"""Regenerate ``hw_golden.npz``, the QUA datapath golden-output fixture.

Run from the repo root with the *current* (trusted) implementation::

    PYTHONPATH=src python tests/data/make_hw_golden.py

``tests/test_hw_faults.py::TestGoldenRegression`` replays :func:`build`
through the live code and requires every array byte for byte (dtype and
shape included), so any refactor of the encode/decode/GEMM/requantize
path that changes behaviour with fault injection *disabled* is caught.
The fixture stores only integer arrays and float64 values produced by
exact arithmetic, so it is stable across platforms.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.hw import QUA, encode_tensor
from repro.hw.walk import _softmax
from repro.quant import progressive_relaxation
from repro.quant.qub import legalize_for_hardware, quantize_encode
from repro.quant.quq import quantize_with_params


def build() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20240805)
    x = rng.standard_t(df=3, size=(16, 32)) * 0.3
    w = rng.normal(size=(32, 24)) * 0.05
    arrays: dict[str, np.ndarray] = {"x": x, "w": w}
    for bits in (6, 8):
        ex = encode_tensor(x, bits)
        ew = encode_tensor(w, bits)
        qua = QUA()
        # PE array, then the accumulators scaled back to real values.
        acc = qua.integer_gemm(ex, ew)
        gemm = acc * (ex.base_delta * ew.base_delta)
        out_values = acc.astype(np.float64) * ex.base_delta * ew.base_delta
        out_params = progressive_relaxation(out_values, bits)
        # QU: Eq. (3) codes under the legalized output parameters, and
        # the QUB words they encode to.
        qt = quantize_with_params(gemm, legalize_for_hardware(out_params))
        out_qubs, out_registers, out_base = quantize_encode(gemm, out_params, bits)
        tag = f"b{bits}"
        arrays.update(
            {
                f"{tag}:x_qubs": ex.qubs,
                f"{tag}:x_regs": np.array(
                    [ex.registers.fine.pack(), ex.registers.coarse.pack()],
                    dtype=np.uint8,
                ),
                f"{tag}:x_base": np.float64(ex.base_delta),
                f"{tag}:w_qubs": ew.qubs,
                f"{tag}:w_regs": np.array(
                    [ew.registers.fine.pack(), ew.registers.coarse.pack()],
                    dtype=np.uint8,
                ),
                f"{tag}:w_base": np.float64(ew.base_delta),
                f"{tag}:acc": acc,
                f"{tag}:gemm": gemm,
                f"{tag}:x_float": ex.to_float(),
                f"{tag}:rq_codes": qt.codes,
                f"{tag}:rq_subranges": qt.subranges,
                f"{tag}:out_qubs": out_qubs,
                f"{tag}:out_regs": np.array(
                    [out_registers.fine.pack(), out_registers.coarse.pack()],
                    dtype=np.uint8,
                ),
                f"{tag}:out_base": np.float64(out_base),
                # SFU: the walk's float Softmax over the load path.
                f"{tag}:softmax": _softmax(qua.sfu_load(ex), False),
            }
        )
    return arrays


if __name__ == "__main__":
    target = Path(__file__).parent / "hw_golden.npz"
    np.savez_compressed(target, **build())
    print(f"wrote {target}")
