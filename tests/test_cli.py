"""Tests for the command-line interface (offline commands only).

The model-dependent commands (``quantize``/``export``/``inspect``) pull
from the trained zoo and are exercised by the benchmark harness; here we
cover the parser wiring, the purely analytical commands, and ``export``
on a random-init tiny ViT.
"""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.backend import PackedWeightStore
from repro.cli import build_parser, cmd_memory, cmd_table4, main
from repro.kernels import KERNELS, kernel_pairs
from repro.models.configs import ModelConfig
from repro.models.vit import build_vit
from repro.quant import ChecksumError
from repro.serve import ModelKey, ModelRegistry

TINY_VIT = ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quantize_defaults(self):
        args = build_parser().parse_args(["quantize", "vit_mini_s"])
        assert args.method == "quq"
        assert args.bits == 6
        assert args.coverage == "full"

    def test_quantize_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quantize", "resnet50"])

    def test_quantize_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quantize", "vit_mini_s", "--method", "awq"])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("zoo", "quantize", "export", "table4", "memory",
                        "inspect", "chaos-soak", "fault-sweep",
                        "corruption-sweep"):
            # Should parse without SystemExit for arg-free commands…
            if command in ("zoo", "table4", "memory",
                           "chaos-soak", "fault-sweep", "corruption-sweep"):
                args = parser.parse_args([command])
                assert callable(args.fn)

    def test_repro_flags_threaded_through_model_commands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["quantize", "vit_mini_s", "--seed", "3", "--batch-size", "16"]
        )
        assert args.seed == 3 and args.batch_size == 16
        for argv in (
            ["export", "vit_mini_s", "out.npz", "--seed", "5"],
            ["inspect", "vit_mini_s", "--seed", "5"],
            ["scale-bench", "--seed", "5"],
        ):
            assert parser.parse_args(argv).seed == 5
        # Defaults preserve the historical sampling behaviour.
        assert parser.parse_args(["quantize", "vit_mini_s"]).seed is None

    def test_chaos_soak_defaults(self):
        args = build_parser().parse_args(["chaos-soak"])
        assert args.model == "vit_s" and args.method == "quq" and args.bits == 6
        assert args.requests == 192 and args.rate == 150.0
        assert args.floor == 0.5 and args.horizon == 12 and args.spike == 16
        assert args.queue == 64 and args.output is None and not args.json
        assert callable(args.fn)

    def test_chaos_soak_flags(self):
        args = build_parser().parse_args([
            "chaos-soak", "--model", "deit_s", "--requests", "64",
            "--rate", "80", "--floor", "0.8", "--seed", "9",
            "--output", "report.json", "--json",
        ])
        assert args.model == "deit_s" and args.requests == 64
        assert args.rate == 80.0 and args.floor == 0.8 and args.seed == 9
        assert args.output == "report.json" and args.json

    def test_fault_sweep_defaults(self):
        args = build_parser().parse_args(["fault-sweep"])
        assert args.model == "vit_mini_s" and args.bits == 8
        assert args.ber is None and args.sites is None
        assert args.images == 32 and args.sweep_batch == 4
        assert args.floor == 0.75 and args.array == 16
        assert args.output is None and not args.json
        assert callable(args.fn)

    def test_fault_sweep_flags(self):
        args = build_parser().parse_args([
            "fault-sweep", "--ber", "1e-3", "--ber", "1e-2",
            "--sites", "qub", "all", "--images", "8", "--floor", "0.9",
            "--no-hessian", "--seed", "4", "--json",
        ])
        assert args.ber == [1e-3, 1e-2]
        assert args.sites == ["qub", "all"]
        assert args.images == 8 and args.floor == 0.9
        assert args.no_hessian and args.seed == 4 and args.json

    def test_fault_sweep_rejects_bad_site(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fault-sweep", "--sites", "dram"])

    def test_corruption_sweep_defaults(self):
        args = build_parser().parse_args(["corruption-sweep"])
        assert args.model == "vit_mini_s" and args.bits == 6
        assert args.methods == ["fp32", "quq", "baseq", "biscaled", "ptq4vit"]
        assert args.corruptions is None and args.severities == [1, 3, 5]
        assert args.images == 128 and not args.recovery
        assert args.recovery_corruption == "gaussian_noise"
        assert args.recovery_severity == 3
        assert args.output is None and not args.json
        assert callable(args.fn)

    def test_corruption_sweep_flags(self):
        args = build_parser().parse_args([
            "corruption-sweep", "--methods", "quq", "baseq",
            "--corruptions", "blur", "occlusion", "--severities", "2", "4",
            "--bits", "4", "--images", "64", "--recovery",
            "--recovery-severity", "5", "--seed", "3", "--json",
        ])
        assert args.methods == ["quq", "baseq"]
        assert args.corruptions == ["blur", "occlusion"]
        assert args.severities == [2, 4] and args.bits == 4
        assert args.images == 64 and args.recovery
        assert args.recovery_severity == 5 and args.seed == 3 and args.json

    def test_corruption_sweep_rejects_bad_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["corruption-sweep", "--methods", "awq"])


class TestAnalyticalCommands:
    def test_table4_prints(self, capsys):
        cmd_table4(build_parser().parse_args(["table4"]))
        out = capsys.readouterr().out
        assert "quq" in out and "mm^2" in out

    def test_memory_prints(self, capsys):
        cmd_memory(build_parser().parse_args(["memory", "--bits", "6"]))
        out = capsys.readouterr().out
        assert "vit_l" in out and "overhead" in out

    def test_memory_measured_prints_packed_buffers(self, capsys):
        cmd_memory(build_parser().parse_args(["memory", "--bits", "6", "--measured"]))
        out = capsys.readouterr().out
        assert "Measured QUB-packed weight buffers at 6-bit" in out
        assert "analytic B" in out and "measured B" in out
        assert "flagged taps: none" in out


class TestExportCommand:
    """``repro export`` on a random-init tiny ViT in place of a zoo model."""

    @pytest.fixture
    def exported(self, monkeypatch, tmp_path, capsys):
        """``(path, exporting pipeline, calibration images, stdout)``."""
        import repro
        from repro import cli

        calib = np.random.default_rng(0).standard_normal((8, 16, 16, 3))
        calib = calib.astype(np.float32)
        monkeypatch.setattr(
            cli, "_setup",
            lambda name, count, seed=None: (build_vit(TINY_VIT, seed=0), 0.0, calib, None),
        )
        pipelines = []
        real_quantize_model = repro.quantize_model

        def quantize_model(*args, **kwargs):
            pipelines.append(real_quantize_model(*args, **kwargs))
            return pipelines[-1]

        monkeypatch.setattr(repro, "quantize_model", quantize_model)
        path = tmp_path / "tiny.npz"
        main(["export", "vit_mini_s", str(path), "--bits", "6"])
        return path, pipelines[0], calib, capsys.readouterr().out

    def test_artifact_loads_and_prints_its_summary(self, exported):
        path, pipeline, _, out = exported
        header, quantizers, store = PackedWeightStore.load(path)
        assert header["bits"] == 6 and set(quantizers) == set(pipeline.tap_names())
        summary = store.summary()
        assert summary == PackedWeightStore.from_pipeline(
            pipeline.model, pipeline, 6
        ).summary()
        assert f"{summary['tensors']} packed weight tensors" in out
        assert (
            f"weights {summary['float_weight_bytes']} B fp32 -> "
            f"{summary['packed_weight_bytes']} B packed ({summary['reduction']}x)"
        ) in out

    def test_flipped_params_byte_is_rejected(self, exported):
        path = exported[0]
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        key = next(name for name in payload if name.endswith(":params"))
        payload[key].view(np.uint8)[9] ^= 0x01
        np.savez(path, **payload)
        with pytest.raises(ChecksumError):
            PackedWeightStore.load(path)

    def test_artifact_warm_starts_a_registry_entry(self, exported, tmp_path):
        path, pipeline, calib, _ = exported
        registry = ModelRegistry(
            artifact_dir=tmp_path / "serve",
            loader=lambda name: (build_vit(TINY_VIT, seed=0), 0.0),
            calib_provider=lambda: calib,
        )
        key = ModelKey.parse("vit_s/quq/6")
        registry.state_path(key).parent.mkdir(parents=True)
        shutil.copy(path, registry.state_path(key))
        served = registry.get(key).predict(calib[:4])
        assert registry.stats["warm_loads"] == 1
        assert registry.stats["calibrations"] == 0
        pipeline.attach()
        pipeline.model.eval()
        with no_grad():
            expected = pipeline.model(Tensor(calib[:4])).data
        assert served.tobytes() == expected.tobytes()


class TestKernelParityCommand:
    """``repro kernel-parity``: one line per pair, then the verdict."""

    def test_passes_and_writes_report(self, capsys, tmp_path):
        output = tmp_path / "parity.json"
        main(["kernel-parity", "--cases", "1", "--output", str(output)])
        lines = capsys.readouterr().out.splitlines()
        ops = sorted(pair.op for pair in kernel_pairs())
        assert lines[0] == f"wrote {output}"
        assert [line.split()[:2] for line in lines[1:-1]] == [[op, "ok"] for op in ops]
        assert lines[-1].startswith(f"kernel parity: {len(ops)} pairs, ")
        assert lines[-1].endswith(" cases, 0 failures -> PASS")
        report = json.loads(output.read_text())
        assert report["passed"] and report["schema_version"] == 3
        assert sorted(report["ops"]) == ops

    def test_mismatch_exits_nonzero(self, capsys, tmp_path, monkeypatch):
        gemm = KERNELS.pair("gemm.int")

        def off_by_one(x, w):
            return gemm.fast(x, w) + 1

        monkeypatch.setitem(KERNELS._pairs, "gemm.int", dataclasses.replace(gemm, fast=off_by_one))
        with pytest.raises(SystemExit) as exit_info:
            main(["kernel-parity", "--cases", "1", "--output", str(tmp_path / "parity.json")])
        assert exit_info.value.code == 1
        out = capsys.readouterr().out
        assert "gemm.int           FAIL" in out
        assert "    small_0: values differ" in out
        assert out.splitlines()[-1].endswith("-> FAIL")
