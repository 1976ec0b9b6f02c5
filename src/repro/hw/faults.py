"""Deterministic, seeded bit-fault injection for the QUA datapath.

A 28 nm deployment of the accelerator is not fault-free: particle strikes
and voltage noise flip bits in SRAM words and pipeline registers, and a
single flipped bit in a QUB code word or an FC register silently remaps an
entire subrange (the top bit alone moves an element between the fine and
coarse spaces).  :class:`BitFaultInjector` models exactly that — uniform
independent bit flips at a configurable bit-error rate (BER) — at the four
storage/datapath sites of the behavioral model:

* ``qub``          — QUB code words fetched by the decoding units feeding
  the PE array (``EncodedTensor.qubs``);
* ``register``     — the packed FC register bytes (``SpaceRegister.pack``)
  read alongside every fetch;
* ``accumulator``  — the PE accumulators inside ``QUA.integer_gemm``
  (flips land in the low ``ACC_PHYSICAL_BITS`` bits, the physical
  register width of the area/power model);
* ``sfu``          — QUB words on the SFU load path.

Determinism is event-indexed, as in :class:`~repro.resilience.faults.
FaultPlan`: the injector numbers the injection calls at each site, and the
RNG that picks the flipped bit positions is derived from ``(seed, site,
event index)`` — so the same seed reproduces the same faulty bits
regardless of sweep order.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = [
    "SITE_QUB",
    "SITE_REGISTER",
    "SITE_ACCUMULATOR",
    "SITE_SFU",
    "HW_FAULT_SITES",
    "ACC_PHYSICAL_BITS",
    "BitFaultInjector",
]

SITE_QUB = "qub"
SITE_REGISTER = "register"
SITE_ACCUMULATOR = "accumulator"
SITE_SFU = "sfu"

HW_FAULT_SITES = (SITE_QUB, SITE_REGISTER, SITE_ACCUMULATOR, SITE_SFU)

#: Physical accumulator width (matches ``repro.hw.area_power._ACC_WIDTH``):
#: flips are confined to these low-order two's-complement bits even though
#: the behavioral model accumulates in int64.
ACC_PHYSICAL_BITS = 32


class BitFaultInjector:
    """Flip bits at the QUA's storage sites, deterministically.

    Parameters
    ----------
    ber:
        Per-bit flip probability per fetch event.
    seed:
        Root seed of every per-event RNG stream.
    sites:
        Which site classes inject (subset of :data:`HW_FAULT_SITES`);
        calls for a disabled site are no-ops that consume no events.
    """

    def __init__(
        self,
        ber: float,
        seed: int = 0,
        sites: tuple[str, ...] = HW_FAULT_SITES,
    ):
        if not 0.0 <= ber < 1.0:
            raise ValueError(f"bit-error rate must be in [0, 1), got {ber}")
        unknown = set(sites) - set(HW_FAULT_SITES)
        if unknown:
            raise ValueError(f"unknown fault sites {sorted(unknown)}; choices: {HW_FAULT_SITES}")
        self.ber = float(ber)
        self.seed = int(seed)
        self.sites = tuple(sites)
        #: Events consumed per ``f"{site_class}:{site}"``: the next event's index.
        self.site_events: dict[str, int] = {}
        self._events: dict[str, int] = {site: 0 for site in HW_FAULT_SITES}
        self._flipped_bits: dict[str, int] = {site: 0 for site in HW_FAULT_SITES}
        self._faulted_words: dict[str, int] = {site: 0 for site in HW_FAULT_SITES}

    # ------------------------------------------------------------------
    def _rng(self, site: str, index: int) -> np.random.Generator:
        # crc32 (not hash()) so the stream survives interpreter restarts.
        return np.random.default_rng(
            [self.seed, zlib.crc32(site.encode("utf-8")), index]
        )

    def _positions(
        self, site_class: str, site: str, total_bits: int
    ) -> np.ndarray | None:
        """Flat bit positions to flip for one fetch event (None = no event)."""
        if site_class not in self.sites or total_bits == 0:
            return None
        full_site = f"{site_class}:{site}"
        index = self.site_events.get(full_site, 0)
        self.site_events[full_site] = index + 1
        self._events[site_class] += 1
        if self.ber == 0.0:
            return np.empty(0, dtype=np.int64)
        rng = self._rng(full_site, index)
        flips = int(rng.binomial(total_bits, self.ber))
        if flips == 0:
            return np.empty(0, dtype=np.int64)
        return rng.choice(total_bits, size=flips, replace=False).astype(np.int64)

    def _record(self, site_class: str, positions: np.ndarray, word_bits: int) -> None:
        self._flipped_bits[site_class] += int(positions.size)
        self._faulted_words[site_class] += int(
            np.unique(positions // word_bits).size
        )

    # ------------------------------------------------------------------
    def corrupt_words(
        self, words: np.ndarray, bits: int, site_class: str, site: str
    ) -> np.ndarray:
        """Return ``words`` with this event's bit flips applied (a copy).

        ``bits`` is the stored word width (QUB words hold ``bits`` bits,
        register bytes 8).  Returns the input array unchanged (same
        object) when nothing flips.
        """
        positions = self._positions(site_class, site, words.size * bits)
        if positions is None or positions.size == 0:
            return words
        self._record(site_class, positions, bits)
        faulty = words.copy()
        flat = faulty.reshape(-1)
        masks = (np.int64(1) << (positions % bits)).astype(flat.dtype)
        np.bitwise_xor.at(flat, positions // bits, masks)
        return faulty

    def corrupt_accumulator(self, acc: np.ndarray, site: str) -> np.ndarray:
        """Flip bits in the low :data:`ACC_PHYSICAL_BITS` of int64 accumulators."""
        positions = self._positions(
            SITE_ACCUMULATOR, site, acc.size * ACC_PHYSICAL_BITS
        )
        if positions is None or positions.size == 0:
            return acc
        self._record(SITE_ACCUMULATOR, positions, ACC_PHYSICAL_BITS)
        faulty = acc.copy()
        flat = faulty.reshape(-1)
        masks = np.int64(1) << (positions % ACC_PHYSICAL_BITS)
        np.bitwise_xor.at(flat, positions // ACC_PHYSICAL_BITS, masks)
        return faulty

    # ------------------------------------------------------------------
    def events(self, site_class: str) -> int:
        return self._events[site_class]

    def flipped_bits(self, site_class: str | None = None) -> int:
        if site_class is None:
            return sum(self._flipped_bits.values())
        return self._flipped_bits[site_class]

    def snapshot(self) -> dict:
        """JSON-serializable view of what was injected where."""
        return {
            "ber": self.ber,
            "seed": self.seed,
            "sites": list(self.sites),
            "events": {k: v for k, v in self._events.items() if v},
            "flipped_bits": {k: v for k, v in self._flipped_bits.items() if v},
            "faulted_words": {k: v for k, v in self._faulted_words.items() if v},
        }
