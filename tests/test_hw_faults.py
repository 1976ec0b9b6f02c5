"""Tests for QUA soft-error injection, protection, and the golden path.

Covers the injector's determinism contract, each protection scheme's
detect/correct/silent accounting, the satellite guardrail in the QU, and
the golden-output regression proving the fault machinery changed nothing
when disarmed, the pinned fault-site fixture, and the fault sweep.
"""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from repro.hw import (
    ACC_PHYSICAL_BITS,
    FaultSweepConfig,
    QUA,
    BitFaultInjector,
    BlockExecutor,
    ModelExecutor,
    ProtectionConfig,
    ProtectionStats,
    SITE_ACCUMULATOR,
    SITE_QUB,
    SITE_REGISTER,
    SITE_SFU,
    encode_tensor,
    majority_vote,
    parity_filter,
    popcount,
    protection_overhead,
    run_fault_sweep,
)
from repro.quant import PTQPipeline, progressive_relaxation
from repro.resilience import NumericGuardError

ALL_ON = ProtectionConfig()
ALL_OFF = ProtectionConfig(parity=False, tmr=False, range_guard=False)
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def quq_pipeline(tiny_trained, calib_images):
    pipeline = PTQPipeline(tiny_trained, method="quq", bits=8, coverage="full")
    pipeline.calibrate(calib_images)
    pipeline.detach()
    yield pipeline
    pipeline.detach()


# ----------------------------------------------------------------------
class TestBitFaultInjector:
    def test_rejects_bad_ber_and_sites(self):
        with pytest.raises(ValueError):
            BitFaultInjector(ber=1.0)
        with pytest.raises(ValueError):
            BitFaultInjector(ber=-0.1)
        with pytest.raises(ValueError):
            BitFaultInjector(ber=0.01, sites=("qub", "dram"))

    def test_same_seed_same_flips(self):
        words = np.arange(256, dtype=np.uint8)
        a = BitFaultInjector(ber=0.05, seed=7).corrupt_words(words, 8, SITE_QUB, "t")
        b = BitFaultInjector(ber=0.05, seed=7).corrupt_words(words, 8, SITE_QUB, "t")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, words)

    def test_different_seed_different_flips(self):
        words = np.arange(256, dtype=np.uint8)
        a = BitFaultInjector(ber=0.05, seed=7).corrupt_words(words, 8, SITE_QUB, "t")
        b = BitFaultInjector(ber=0.05, seed=8).corrupt_words(words, 8, SITE_QUB, "t")
        assert not np.array_equal(a, b)

    def test_event_index_varies_the_stream(self):
        words = np.zeros(512, dtype=np.uint8)
        inj = BitFaultInjector(ber=0.05, seed=3)
        first = inj.corrupt_words(words, 8, SITE_QUB, "t")
        second = inj.corrupt_words(words, 8, SITE_QUB, "t")
        assert not np.array_equal(first, second)
        assert inj.events(SITE_QUB) == 2

    def test_zero_ber_is_noop_but_consumes_events(self):
        words = np.arange(64, dtype=np.uint8)
        inj = BitFaultInjector(ber=0.0, seed=1)
        out = inj.corrupt_words(words, 8, SITE_QUB, "t")
        assert out is words
        assert inj.events(SITE_QUB) == 1
        assert inj.flipped_bits() == 0

    def test_disabled_site_is_inert(self):
        words = np.arange(64, dtype=np.uint8)
        inj = BitFaultInjector(ber=0.5, seed=1, sites=(SITE_REGISTER,))
        assert inj.corrupt_words(words, 8, SITE_QUB, "t") is words
        assert inj.events(SITE_QUB) == 0

    def test_qub_flips_stay_inside_word_width(self):
        words = np.zeros(4096, dtype=np.uint8)
        faulty = BitFaultInjector(ber=0.02, seed=2).corrupt_words(
            words, 6, SITE_QUB, "t"
        )
        assert int(faulty.max()) < 2**6

    def test_accumulator_flips_confined_to_physical_bits(self):
        acc = np.zeros(4096, dtype=np.int64)
        faulty = BitFaultInjector(ber=0.01, seed=9).corrupt_accumulator(acc, "t")
        diff = np.bitwise_xor(acc, faulty)
        assert diff.any()
        assert (diff >> ACC_PHYSICAL_BITS == 0).all()

    def test_snapshot_reports_injections(self):
        inj = BitFaultInjector(ber=0.05, seed=7)
        inj.corrupt_words(np.zeros(256, dtype=np.uint8), 8, SITE_QUB, "t")
        snap = inj.snapshot()
        assert snap["ber"] == 0.05
        assert snap["events"][SITE_QUB] == 1
        assert snap["flipped_bits"][SITE_QUB] >= 1


# ----------------------------------------------------------------------
class TestProtectionPrimitives:
    def test_popcount(self):
        words = np.array([0b0, 0b1, 0b1011, 0xFF], dtype=np.uint8)
        assert popcount(words, 8).tolist() == [0, 1, 3, 8]

    def test_parity_catches_single_flips(self):
        golden = np.array([3, 5, 9], dtype=np.uint8)
        faulty = golden ^ np.array([0, 4, 0], dtype=np.uint8)
        out, faulted, detected, silent = parity_filter(golden, faulty, 8, parity=True)
        assert np.array_equal(out, golden)
        assert (faulted, detected, silent) == (1, 1, 0)

    def test_even_weight_corruption_is_silent(self):
        golden = np.array([3, 5, 9], dtype=np.uint8)
        faulty = golden ^ np.array([0b110, 0, 0], dtype=np.uint8)
        out, faulted, detected, silent = parity_filter(golden, faulty, 8, parity=True)
        assert np.array_equal(out, faulty)
        assert (faulted, detected, silent) == (1, 0, 1)

    def test_parity_off_passes_everything(self):
        golden = np.array([3, 5], dtype=np.uint8)
        faulty = golden ^ np.array([1, 0], dtype=np.uint8)
        out, faulted, detected, silent = parity_filter(golden, faulty, 8, parity=False)
        assert np.array_equal(out, faulty)
        assert (faulted, detected, silent) == (1, 0, 1)

    def test_majority_outvotes_single_copy(self):
        golden = np.array([0x42, 0x17], dtype=np.uint8)
        corrupted = golden ^ np.array([0x80, 0], dtype=np.uint8)
        assert np.array_equal(majority_vote([corrupted, golden, golden]), golden)

    def test_two_copy_agreement_wins_vote(self):
        golden = np.array([0x42], dtype=np.uint8)
        bad = golden ^ np.uint8(0x08)
        assert np.array_equal(majority_vote([bad, bad, golden]), bad)


# ----------------------------------------------------------------------
def _encoded_pair(rng, bits=8, m=16, k=32, n=24):
    x = rng.standard_t(df=3, size=(m, k)) * 0.3
    w = rng.normal(size=(k, n)) * 0.05
    return encode_tensor(x, bits), encode_tensor(w, bits)


class TestQUAProtection:
    def test_armed_zero_ber_bit_exact(self, rng):
        ex, ew = _encoded_pair(rng)
        golden = QUA().integer_gemm(ex, ew)
        qua = QUA(faults=BitFaultInjector(ber=0.0, seed=1), protection=ALL_ON)
        assert np.array_equal(qua.integer_gemm(ex, ew), golden)
        assert qua.stats.silent_total() == 0

    def test_parity_refetch_reduces_qub_damage(self, rng):
        ex, ew = _encoded_pair(rng)
        golden = QUA().integer_gemm(ex, ew)

        def run(protection):
            stats = ProtectionStats()
            qua = QUA(
                faults=BitFaultInjector(ber=0.01, seed=11, sites=(SITE_QUB,)),
                protection=protection,
                stats=stats,
            )
            return qua.integer_gemm(ex, ew), stats

        out_unprot, stats_unprot = run(ALL_OFF)
        out_prot, stats_prot = run(ALL_ON)
        assert stats_unprot.qub_detected == 0
        assert stats_unprot.qub_silent == stats_unprot.qub_faulted_words > 0
        assert stats_prot.qub_detected > 0
        assert stats_prot.qub_silent < stats_unprot.qub_silent
        err_unprot = np.abs(out_unprot - golden).sum()
        err_prot = np.abs(out_prot - golden).sum()
        assert err_prot < err_unprot

    def test_tmr_zero_silent_register_corruptions(self, rng):
        # TMR's guarantee is against *single-copy* faults; at realistic
        # BERs the chance of the same bit flipping in two copies within
        # one fetch is negligible, so no corruption reaches the decoder.
        ex, ew = _encoded_pair(rng)
        stats = ProtectionStats()
        qua = QUA(
            faults=BitFaultInjector(ber=2e-3, seed=14, sites=(SITE_REGISTER,)),
            protection=ALL_ON,
            stats=stats,
        )
        for _ in range(200):
            qua.integer_gemm(ex, ew)
        assert stats.register_faulted_copies > 0
        assert stats.register_silent == 0
        assert stats.register_corrected + stats.register_detected > 0

    def test_unprotected_registers_corrupt_or_detect(self, rng):
        ex, ew = _encoded_pair(rng)
        stats = ProtectionStats()
        qua = QUA(
            faults=BitFaultInjector(ber=0.02, seed=13, sites=(SITE_REGISTER,)),
            protection=ALL_OFF,
            stats=stats,
        )
        for _ in range(200):
            qua.integer_gemm(ex, ew)
        assert stats.register_faulted_copies > 0
        # Without TMR the only line of defense is the strict unpack.
        assert stats.register_corrected == 0
        assert stats.register_silent + stats.register_detected > 0

    def test_range_guard_bounds_accumulator_damage(self, rng):
        ex, ew = _encoded_pair(rng)
        dx, nx = ex.decoded()
        dw, nw = ew.decoded()
        envelope = np.abs(dx << nx) @ np.abs(dw << nw)
        stats = ProtectionStats()
        qua = QUA(
            faults=BitFaultInjector(ber=1e-3, seed=17, sites=(SITE_ACCUMULATOR,)),
            protection=ALL_ON,
            stats=stats,
        )
        outs = [qua.integer_gemm(ex, ew) for _ in range(50)]
        assert stats.acc_faulted_words > 0
        assert stats.acc_detected > 0  # high-order flips exceed the envelope
        for out in outs:
            assert (np.abs(out) <= envelope).all()

    def test_no_range_guard_lets_high_bits_through(self, rng):
        ex, ew = _encoded_pair(rng)
        dx, nx = ex.decoded()
        dw, nw = ew.decoded()
        envelope = np.abs(dx << nx) @ np.abs(dw << nw)
        qua = QUA(
            faults=BitFaultInjector(ber=1e-3, seed=17, sites=(SITE_ACCUMULATOR,)),
            protection=ALL_OFF,
        )
        escaped = any(
            (np.abs(qua.integer_gemm(ex, ew)) > envelope).any() for _ in range(50)
        )
        assert escaped
        assert qua.stats.acc_silent == qua.stats.acc_faulted_words > 0


# ----------------------------------------------------------------------
class TestRequantizeGuard:
    """Satellite: the QU routes poisoned values through the numeric
    guardrail (:meth:`QUA.check_values`, run before every encode) instead
    of silently clipping them into in-range codes.  The guard scans only
    when faults are armed, so each QUA here carries a zero-BER injector."""

    def _accumulators(self, rng):
        ex, ew = _encoded_pair(rng)
        qua = QUA(faults=BitFaultInjector(ber=0.0))
        return qua, qua.integer_gemm(ex, ew), ex.base_delta * ew.base_delta

    def test_nan_rejected(self, rng):
        qua, acc, scale = self._accumulators(rng)
        bad = acc.astype(np.float64)
        bad[0, 0] = np.nan
        with pytest.raises(NumericGuardError, match="NaN"):
            qua.check_values(bad * scale)
        assert qua.stats.guard_trips == 1

    def test_inf_and_saturation_rejected(self, rng):
        qua, acc, scale = self._accumulators(rng)
        bad = acc.astype(np.float64)
        bad[0, 0] = np.inf
        with pytest.raises(NumericGuardError, match="Inf"):
            qua.check_values(bad * scale)
        sat = acc.astype(np.float64)
        sat[0, 0] = 1e9 / scale  # saturated but finite after scaling
        with pytest.raises(NumericGuardError, match="saturated"):
            qua.check_values(sat * scale)

    def test_clean_path_unchanged(self, rng):
        qua, acc, scale = self._accumulators(rng)
        values = acc * scale
        assert qua.check_values(values) is values
        out = encode_tensor(values, 8, params=progressive_relaxation(values, 8))
        assert np.isfinite(out.to_float()).all()
        assert qua.stats.guard_trips == 0


# ----------------------------------------------------------------------
class TestGoldenRegression:
    """Replays tests/data/make_hw_golden.py against the pinned
    tests/data/hw_golden.npz (generated before the fault wiring): with
    injection disabled, every array of the QUA datapath — the QUB encode,
    the PE-array accumulators, the QU's requantized codes and words and
    the SFU load path — must match byte for byte, dtype and shape
    included."""

    @pytest.fixture(scope="class")
    def replay(self):
        expected = np.load(DATA / "hw_golden.npz")
        actual = runpy.run_path(str(DATA / "make_hw_golden.py"))["build"]()
        return expected, actual

    @pytest.mark.parametrize("bits", [6, 8])
    def test_datapath_bit_exact(self, replay, bits):
        expected, actual = replay
        assert sorted(actual) == sorted(expected.files)
        keys = [key for key in expected.files if ":" not in key or key.startswith(f"b{bits}:")]
        for key in keys:
            want, got = expected[key], np.asarray(actual[key])
            assert got.dtype == want.dtype, key
            assert got.shape == want.shape, key
            assert got.tobytes() == want.tobytes(), key


class TestFaultSiteRegression:
    """Replays tests/data/make_hw_fault_sites.py against the pinned
    tests/data/hw_fault_sites.json: every run must consume the same
    ``(kind, site)`` events.  A renamed or dropped site changes which
    bits every fault sweep flips, yet a same-seed rerun still agrees
    with itself."""

    def test_every_run_consumes_the_pinned_sites(self):
        expected = json.loads((DATA / "hw_fault_sites.json").read_text())
        actual = runpy.run_path(str(DATA / "make_hw_fault_sites.py"))["build"]()
        assert sorted(actual) == sorted(expected)
        for run, sites in expected.items():
            assert actual[run] == sites, run


# ----------------------------------------------------------------------
class TestExecutorFaultWiring:
    def test_armed_zero_ber_matches_unarmed(
        self, tiny_trained, quq_pipeline, calib_images
    ):
        images = calib_images[:2].astype(np.float64)
        baseline = ModelExecutor(tiny_trained, quq_pipeline, bits=8).run(images)
        armed = ModelExecutor(
            tiny_trained,
            quq_pipeline,
            bits=8,
            faults=BitFaultInjector(ber=0.0, seed=1),
            protection=ALL_ON,
        )
        assert np.array_equal(armed.run(images), baseline)
        assert armed.faults.events(SITE_QUB) > 0  # sites are actually wired
        assert armed.faults.events(SITE_REGISTER) > 0
        assert armed.faults.events(SITE_ACCUMULATOR) > 0
        assert armed.faults.events(SITE_SFU) > 0
        assert armed.stats.silent_total() == 0

    def test_same_seed_reproduces_faulty_run(
        self, tiny_trained, quq_pipeline, calib_images
    ):
        images = calib_images[:2].astype(np.float64)

        def run():
            executor = ModelExecutor(
                tiny_trained,
                quq_pipeline,
                bits=8,
                faults=BitFaultInjector(ber=2e-4, seed=42),
                protection=ALL_OFF,
            )
            return executor.run(images), executor.stats.snapshot()

        (out_a, stats_a), (out_b, stats_b) = run(), run()
        assert np.array_equal(out_a, out_b)
        assert stats_a == stats_b
        assert stats_a["silent_total"] > 0

    def test_protection_recovers_block_output(
        self, tiny_trained, quq_pipeline, calib_images
    ):
        from repro.autograd import Tensor, concat, no_grad

        quq_pipeline.detach()
        with no_grad():
            patches = tiny_trained.patch_embed(Tensor(calib_images[:2]))
            ones = Tensor(np.ones((2, 1, 1), dtype=np.float32))
            tokens = concat([ones * tiny_trained.cls_token, patches], axis=1)
            tokens = (tokens + tiny_trained.pos_embed).data.astype(np.float64)

        baseline = BlockExecutor(
            tiny_trained.blocks[0], quq_pipeline, "tiny_vit.blocks.0", bits=8
        ).run(tokens)

        def run(protection):
            executor = BlockExecutor(
                tiny_trained.blocks[0],
                quq_pipeline,
                "tiny_vit.blocks.0",
                bits=8,
                faults=BitFaultInjector(
                    ber=2e-4, seed=3, sites=(SITE_QUB, SITE_REGISTER)
                ),
                protection=protection,
            )
            return executor.run(tokens), executor.qua.stats

        out_prot, stats_prot = run(ALL_ON)
        out_unprot, stats_unprot = run(ALL_OFF)
        err_prot = np.abs(out_prot - baseline).max()
        err_unprot = np.abs(out_unprot - baseline).max()
        assert stats_unprot.silent_total() > stats_prot.silent_total()
        assert err_prot < err_unprot


# ----------------------------------------------------------------------
class TestFaultSweep:
    def test_sweep_passes_and_reproduces(self, tiny_trained, quq_pipeline, calib_images):
        config = FaultSweepConfig(bers=(1e-3,), site_cases=("all",), batch=4)

        def sweep():
            return run_fault_sweep(tiny_trained, quq_pipeline, calib_images[:16], config)

        report = sweep()
        assert report["passed"]
        match = {row["protection"]: row["match_fault_free"] for row in report["rows"]}
        assert match["unprotected"] < 1.0
        assert match["protected"] == 1.0
        assert json.dumps(report, sort_keys=True) == json.dumps(sweep(), sort_keys=True)


# ----------------------------------------------------------------------
class TestProtectionOverhead:
    def test_schemes_accumulate(self):
        none = protection_overhead(ALL_OFF)
        assert none["area_mm2"] == 0.0 and none["schemes"] == {}
        full = protection_overhead(ALL_ON)
        assert set(full["schemes"]) == {"parity", "tmr", "range_guard"}
        assert full["area_overhead_pct"] > 0
        partial = protection_overhead(ProtectionConfig(parity=True, tmr=False, range_guard=False))
        assert 0 < partial["area_mm2"] < full["area_mm2"]

    def test_range_guard_dominates(self):
        full = protection_overhead(ALL_ON)
        guard = full["schemes"]["range_guard"]["area_mm2"]
        assert guard > full["schemes"]["parity"]["area_mm2"]
        assert guard > full["schemes"]["tmr"]["area_mm2"]
