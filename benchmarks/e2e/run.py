#!/usr/bin/env python3
"""End-to-end benchmark of the QUQ serving paths.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload offline-int --seed 0 --seconds 16 --trace 0
    python3 benchmarks/e2e/run.py --seed 0            # all four workloads

Each workload runs in fresh child interpreters with one BLAS thread, no
``REPRO_KERNELS`` override and a new temporary cache/artifact directory.
``setup_s`` is the median over several children of the time from
spawning the interpreter to its ``READY`` line; the last child then
measures one window and verifies every output.  The last line printed is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full report (sample counts, provenance, setup samples)
is written under ``--out``.  Exit status: 0 when every output is correct
and every reported percentile has enough samples beyond it, 1 when not,
2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from probe import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("offline-float", "offline-int", "serve-local", "serve-cluster")
DEFAULT_SECONDS = 16
SMOKE_SECONDS = 2
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Wall-clock budget of one workload run, children included.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
READY = "READY"


class BenchmarkError(RuntimeError):
    """The benchmark itself could not produce a result."""


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_KERNELS", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["TMPDIR"] = str(workdir / "tmp")
    return env


class Child:
    """A worker interpreter whose stdout lines are timestamped as read."""

    def __init__(self, argv: list[str], workdir: Path):
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", str(HERE / "worker.py"), *argv, "--workdir", str(workdir)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(workdir),
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def line(self, deadline: float) -> tuple[float, str | None]:
        try:
            return self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            raise BenchmarkError("worker exceeded the run budget") from None

    def until_ready(self, deadline: float) -> tuple[float, float]:
        """Seconds from spawn to the worker's READY line, and the probe
        time the worker measured around its set-up."""
        while True:
            stamp, text = self.line(deadline)
            if text is None:
                raise BenchmarkError("worker exited before READY")
            word, _, probe_s = text.partition(" ")
            if word == READY:
                return stamp - self.started, float(probe_s)

    def finish(self, deadline: float) -> str | None:
        """The worker's last stdout line, after it exits successfully."""
        last = None
        while True:
            _, text = self.line(deadline)
            if text is None:
                break
            last = text or last
        try:
            code = self.process.wait(timeout=max(0.1, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError("worker did not exit within the run budget") from None
        self.reader.join(timeout=1.0)
        if code != 0:
            raise BenchmarkError(f"worker exited with status {code}")
        return last

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.reader.join(timeout=1.0)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool, out_dir: Path) -> dict:
    """Spawn the set-up children and the measuring child; the full report."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    stem = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    spans_dir = RUN_DIR / "spans"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
        argv += ["--spans", str(spans_dir / f"{stem}.jsonl")]
    repeats = 1 if smoke or trace else SETUP_REPEATS
    setup_samples = []
    for index in range(repeats):
        workdir = RUN_DIR / "work" / f"{stem}-{index}"
        last = index == repeats - 1
        child = Child(argv + ([] if last else ["--setup-only"]), workdir)
        try:
            setup_samples.append(child.until_ready(deadline))
            line = child.finish(deadline)
        finally:
            child.kill()
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        report = json.loads(line)
    except (TypeError, json.JSONDecodeError):
        raise BenchmarkError(f"worker printed no report (last line: {line!r})") from None
    report["setup_samples_s"] = [seconds for seconds, _ in setup_samples]
    report["provenance"]["git"] = git_sha()
    if not trace:
        report["unscaled"]["setup_s"] = statistics.median(report["setup_samples_s"])
        scaled = [seconds * Probe.scale(probe_s) for seconds, probe_s in setup_samples]
        report["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    report["correct"] = report["failed"] == 0
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return report


def describe(report: dict) -> str:
    """Human-readable summary of one report."""
    prov = report["provenance"]
    mode = "traced" if report["trace"] else "untraced"
    lines = [
        f"== {report['workload']}  seed {report['seed']}  {report['seconds']:g} s  {mode} ==",
        f"python {prov['python']}, numpy {prov['numpy']}, blas {json.dumps(prov['blas'])}, "
        f"nproc {prov['nproc']}, threads {prov['threads']}, git {prov['git']}",
        "setup samples (s): " + " ".join(f"{s:.3f}" for s in report["setup_samples_s"]),
    ]
    width = max(len(name) for name in report["metrics"])
    unscaled = report.get("unscaled", {})
    for name, metric in sorted(report["metrics"].items()):
        raw = f"  (unscaled {unscaled[name]:.4f})" if name in unscaled else ""
        lines.append(f"  {name:<{width}}  {metric['value']:>12.4f}  {metric['unit']}{raw}")
    for label, count in sorted(report["samples"].items()):
        lines.append(f"  samples {label}: {count['samples']} ({count['beyond']} beyond)")
    for problem in report["unsupported"]:
        lines.append(f"  UNSUPPORTED percentile: {problem}")
    lines.append(
        f"outputs: {report['attempted']} attempted, {report['failed']} failed, "
        f"top1_match {report['top1_match']:.4f}, error_rate {report['error_rate']:.4f}"
    )
    return "\n".join(lines)


def result_line(report: dict) -> dict:
    return {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help=f"window length (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s windows, one set-up, percentile support not enforced")
    parser.add_argument("--out", type=Path, default=RUN_DIR / "results",
                        help="directory for the full JSON reports")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    if seconds <= 0:
        parser.error("--seconds must be positive")

    reports = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            report = run_workload(workload, args.seed, seconds, args.trace, args.smoke, args.out)
        except BenchmarkError as error:
            print(f"error: {workload}: {error}", file=sys.stderr)
            return 2
        print(describe(report), flush=True)
        reports.append(report)

    ok = all(r["correct"] and (args.smoke or not r["unsupported"]) for r in reports)
    if len(reports) == 1:
        line = result_line(reports[0])
    else:
        line = {
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {
                f"{r['workload']}.{name}": metric
                for r in reports for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
