"""Smoke tests: every example loads, and the fast ones run end to end.

Every example is loaded (imports and definitions, without ``main``), so
an API change cannot leave one importing a name that is gone.  Only the
examples that need no trained zoo model run end to end here (the others
are exercised by the benchmark harness, which shares their code paths);
``custom_quantizer.py``'s ``evaluate_with`` runs on a random-init tiny
model.
"""

import runpy
import sys
from pathlib import Path

import pytest

from repro.quant import QuantEnv

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name: str, capsys, monkeypatch) -> str:
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    @pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.name)
    def test_loads(self, path):
        runpy.run_path(str(path), run_name="example")

    def test_quickstart(self, capsys, monkeypatch):
        out = _run("quickstart.py", capsys, monkeypatch)
        assert "bit-exact" in out
        assert "x better" in out

    def test_accelerator_simulation(self, capsys, monkeypatch):
        out = _run("accelerator_simulation.py", capsys, monkeypatch)
        assert "bit-exact vs dequantized float GEMM: True" in out
        assert "headline" in out
        assert "Peak on-chip memory" in out

    def test_custom_quantizer_evaluate_with(self, tiny_vit, tiny_data, calib_images):
        # Loaded without running ``main`` (which needs a trained zoo model).
        example = runpy.run_path(str(EXAMPLES / "custom_quantizer.py"), run_name="example")
        built = []

        def build(bits):
            built.append(example["PercentileClippedUniform"](bits))
            return built[-1]

        _, val_set = tiny_data
        accuracy = example["evaluate_with"](
            tiny_vit, calib_images, val_set.subset(32, seed=0), 6, build
        )
        assert 0.0 <= accuracy <= 100.0
        assert built and all(q.fitted and q.bits == 6 for q in built)
        assert not isinstance(tiny_vit.tap_dispatcher, QuantEnv)  # detached again
