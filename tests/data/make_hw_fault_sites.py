"""Regenerate ``hw_fault_sites.json``, the QUA fault-site fixture.

Run from the repo root with the *current* (trusted) implementation::

    PYTHONPATH=src python tests/data/make_hw_fault_sites.py

Each entry counts the events one seeded
:class:`~repro.hw.faults.BitFaultInjector` consumes at each site during
one ``ModelExecutor.run``, keyed ``"bit_flip <site_class>:<site>"``, for
the tiny ViT and the distilled tiny DeiT, both SFU modes, and protection
all on and all off.
``tests/test_hw_faults.py::TestFaultSiteRegression`` replays :func:`build`
through the live code and requires the same multisets, so a refactor that
renames, drops or adds a fault site fails even though a same-seed
rerun of the changed code would still agree with itself.  Only site names
and counts are stored, so the fixture does not depend on float or RNG
behaviour.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.hw import BitFaultInjector, ModelExecutor, ProtectionConfig
from repro.models.configs import ModelConfig
from repro.models.vit import build_vit
from repro.quant import PTQPipeline

MODELS = {
    "tiny_vit": ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2),
    "tiny_deit": ModelConfig("tiny_deit", "deit", 16, 4, 3, 10, 32, 2, 2, distilled=True),
}
PROTECTION = {
    "all_on": ProtectionConfig(),
    "all_off": ProtectionConfig(parity=False, tmr=False, range_guard=False),
}


def fault_sites(executor: ModelExecutor, images: np.ndarray) -> dict[str, int]:
    """``"bit_flip site" -> count`` over the events one run consumes."""
    executor.run(images)
    return {f"bit_flip {site}": count
            for site, count in sorted(executor.faults.site_events.items())}


def build() -> dict[str, dict[str, int]]:
    out = {}
    for name, config in MODELS.items():
        model = build_vit(config, seed=0)
        rng = np.random.default_rng(0)
        pipeline = PTQPipeline(model, method="quq", bits=8, coverage="full")
        pipeline.calibrate(rng.normal(size=(24, 16, 16, 3)).astype(np.float32))
        images = rng.normal(size=(2, 16, 16, 3))
        for integer_sfu in (False, True):
            for label, protection in PROTECTION.items():
                executor = ModelExecutor(
                    model,
                    pipeline,
                    bits=8,
                    integer_sfu=integer_sfu,
                    faults=BitFaultInjector(ber=2e-4, seed=42),
                    protection=protection,
                )
                sfu = "int_sfu" if integer_sfu else "float_sfu"
                out[f"{name}/{sfu}/{label}"] = fault_sites(executor, images)
    return out


if __name__ == "__main__":
    target = Path(__file__).parent / "hw_fault_sites.json"
    target.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
