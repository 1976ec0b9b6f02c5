"""Tests for the command-line interface (offline commands only).

The model-dependent commands (``quantize``/``export``/``inspect``) pull
from the trained zoo and are exercised by the benchmark harness; here we
cover the parser wiring and the purely analytical commands.
"""

import pytest

from repro.cli import build_parser, cmd_memory, cmd_table4


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
