"""Smoke tests: the fast examples must run end to end.

Only the examples that need no trained zoo model run here (the others are
exercised by the benchmark harness, which shares their code paths).
"""

import runpy
import sys
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name: str, capsys, monkeypatch) -> str:
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys, monkeypatch):
        out = _run("quickstart.py", capsys, monkeypatch)
        assert "bit-exact" in out
        assert "x better" in out

    def test_accelerator_simulation(self, capsys, monkeypatch):
        out = _run("accelerator_simulation.py", capsys, monkeypatch)
        assert "bit-exact vs dequantized float GEMM: True" in out
        assert "headline" in out
        assert "Peak on-chip memory" in out
