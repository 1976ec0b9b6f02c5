"""Regenerate ``int_sfu_golden.npz``, the integer-SFU golden-output fixture.

Run from the repo root with the *current* (trusted) formula::

    PYTHONPATH=src python tests/data/make_int_sfu_golden.py

Each case stores the int64 input codes the walk would hand an SFU, the
keyword arguments, and the ``(codes, scale)`` the op's reference
implementation returned: the I-BERT formula of ``repro.hw.int_sfu``,
through ``get_kernel(op, prefer="reference")``.
``tests/test_hw_int_sfu.py::TestGoldenCodes`` replays every case through
both implementations, reference and fast, and requires identical codes
and scales.  The inputs are
seeded tensors of the tiny ViT's shapes (2 images, 17 tokens, width 32,
2 heads, MLP width 128) at the walk's SFU scales, plus the edge cases the
serving shapes rarely reach: GELU's +/-12.0 saturation inputs, and a
LayerNorm row whose variance is at least ``2**52``, where the integer
square root leaves the float64 window.  Only integers and powers of two
are stored, so the fixture is exact on every platform.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.kernels import get_kernel

#: ``name -> (op, input scale, keyword arguments)``; the inputs come from
#: :func:`inputs`.
CASES = {
    "softmax_last_16": ("sfu.softmax", 2.0**-10, {"out_bits": 16}),
    "softmax_last_8": ("sfu.softmax", 2.0**-10, {"out_bits": 8}),
    "softmax_mid_16": ("sfu.softmax", 2.0**-10, {"axis": 1, "out_bits": 16}),
    "softmax_mid_8": ("sfu.softmax", 2.0**-10, {"axis": 1, "out_bits": 8}),
    "gelu": ("sfu.gelu", 2.0**-10, {}),
    "layernorm_affine_12": ("sfu.layernorm", 2.0**-14, {"out_bits": 12}),
    "layernorm_plain_8": ("sfu.layernorm", 2.0**-14, {"out_bits": 8}),
}

#: Variance of the LayerNorm row that leaves the float64 square-root window.
WIDE_VARIANCE = 1 << 52


def inputs() -> dict[str, dict[str, np.ndarray]]:
    """Seeded SFU inputs: ``name -> {"q": codes, ...affine arrays}``."""
    rng = np.random.default_rng(20261017)
    scores = rng.normal(0.0, 2.0, size=(2, 2, 17, 17))
    hidden = rng.normal(0.0, 1.5, size=(2, 17, 128))
    hidden[0, 0, :4] = [12.0, -12.0, 12.0, -12.0]  # GELU saturation
    tokens = rng.normal(0.5, 1.0, size=(2, 17, 32))
    # One row whose code variance reaches 2**52: the Newton fallback.
    tokens[1, 3] = rng.normal(0.0, 6000.0, size=32)
    weight = rng.normal(1.0, 0.1, size=32)
    bias = rng.normal(0.0, 0.1, size=32)

    def codes(values, scale):
        return np.rint(values / scale).astype(np.int64)

    out = {}
    for name, (op, scale, _) in CASES.items():
        values = {"sfu.softmax": scores, "sfu.gelu": hidden, "sfu.layernorm": tokens}[op]
        out[name] = {"q": codes(values, scale)}
        if name.startswith("layernorm_affine"):
            out[name].update(weight=weight, bias=bias)
    q = out["layernorm_plain_8"]["q"]
    centered = q - np.floor_divide(q.sum(axis=-1, keepdims=True), q.shape[-1])
    variance = np.floor_divide((centered * centered).sum(axis=-1), q.shape[-1])
    assert variance.max() >= WIDE_VARIANCE > np.sort(variance.ravel())[-2]
    return out


def build() -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for name, case in inputs().items():
        op, scale, kwargs = CASES[name]
        affine = {key: value for key, value in case.items() if key != "q"}
        q_out, s_out = get_kernel(op, prefer="reference")(case["q"], scale, **kwargs, **affine)
        arrays.update({f"{name}:{key}": value for key, value in case.items()})
        arrays[f"{name}:q_out"] = np.asarray(q_out, dtype=np.int64)
        arrays[f"{name}:s_out"] = np.float64(s_out)
    return arrays


if __name__ == "__main__":
    target = Path(__file__).parent / "int_sfu_golden.npz"
    np.savez_compressed(target, **build())
    print(f"wrote {target}")
