"""Memory hierarchies and device resource models.

The cost model charges every operand movement to one of four levels —
DRAM, global buffer, NoC, register file — with per-access energies in the
Eyeriss-calibrated ratios (DRAM approx 200x an RF access; ISCA'16).  A
:class:`Device` bundles a hierarchy with compute resources (PE/DSP count,
clock) and platform restrictions (FPGA dataflows are less flexible than
ASIC ones, which the paper highlights in Fig. 5's analysis).

Energy units are picojoules per 16-bit word access; word energies scale
linearly with operand bit-width and MAC energy quadratically (multiplier
energy grows roughly with the square of operand width), which is what
makes low-precision execution pay off in EDP (Figs. 6-7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["MemoryLevel", "MemoryHierarchy", "Device", "eyeriss_like_asic",
           "zc706_like_fpga", "edge_asic", "BASE_WORD_BITS"]

# Energy table reference width: the Eyeriss numbers are for 16-bit words.
BASE_WORD_BITS = 16


@dataclass(frozen=True)
class MemoryLevel:
    """One storage level.

    Parameters
    ----------
    name:
        DRAM / GlobalBuffer / NoC / RegisterFile (outermost first).
    capacity_bits:
        Usable storage; ``None`` (DRAM) means unbounded.
    energy_per_word:
        pJ per 16-bit word access (read or write).
    bandwidth_words:
        16-bit words transferable per cycle into the level below.
    """

    name: str
    capacity_bits: int | None
    energy_per_word: float
    bandwidth_words: float

    def capacity_words(self, bits: int) -> float:
        """How many ``bits``-wide words fit (inf for DRAM)."""
        if self.capacity_bits is None:
            return float("inf")
        return self.capacity_bits / bits


@dataclass(frozen=True)
class MemoryHierarchy:
    """Ordered levels, outermost (DRAM) first, innermost (RF) last."""

    levels: Tuple[MemoryLevel, ...]

    def __post_init__(self):
        if len(self.levels) < 2:
            raise ValueError("hierarchy needs at least DRAM + one on-chip level")

    def __iter__(self):
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def names(self) -> List[str]:
        return [lvl.name for lvl in self.levels]

    def level(self, name: str) -> MemoryLevel:
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        raise KeyError(f"no level named {name!r} in {self.names}")


@dataclass(frozen=True)
class Device:
    """A deployment target: memory hierarchy + compute resources.

    Parameters
    ----------
    num_pes:
        Processing elements (ASIC) or DSP slices (FPGA).
    clock_ghz:
        Nominal clock.
    mac_energy:
        pJ per 16-bit MAC.
    platform:
        ``"asic"`` or ``"fpga"``.  FPGA platforms restrict dataflow
        flexibility (fixed innermost loop orders — the HLS pipeline
        structure is baked into the bitstream), mirroring the paper's
        observation that AutoMapper gains more on ASIC.
    precision_packing:
        If True, a PE processes ``BASE_WORD_BITS / bits`` MACs per cycle
        at reduced precision (DSP packing / bit-serial ALUs), the
        mechanism behind Fig. 7's FPS gains.
    """

    name: str
    hierarchy: MemoryHierarchy
    num_pes: int
    clock_ghz: float
    mac_energy: float
    platform: str = "asic"
    precision_packing: bool = True

    def __post_init__(self):
        if self.platform not in ("asic", "fpga"):
            raise ValueError(f"platform must be asic|fpga, got {self.platform}")
        if self.num_pes < 1:
            raise ValueError("num_pes must be >= 1")
        if self.clock_ghz <= 0:
            raise ValueError("clock_ghz must be positive")

    def macs_per_cycle(self, bits: int) -> float:
        """Peak MAC throughput at a given operand width."""
        if not self.precision_packing:
            return float(self.num_pes)
        packing = max(1.0, BASE_WORD_BITS / max(bits, 1))
        return self.num_pes * packing

    def mac_energy_at(self, bits: int) -> float:
        """MAC energy scaled quadratically with operand width."""
        scale = (bits / BASE_WORD_BITS) ** 2
        return self.mac_energy * scale


def _word_energy(scale: float) -> float:
    """Energy relative to one RF access (0.05 pJ per 16-bit word here)."""
    return 0.05 * scale


def eyeriss_like_asic(name: str = "eyeriss-asic") -> Device:
    """Eyeriss-class edge ASIC: 14x12 PEs, 108 KB global buffer.

    Level energies follow the ISCA'16 relative costs:
    DRAM : GB : NoC : RF  =  200 : 6 : 2 : 1.
    """
    hierarchy = MemoryHierarchy((
        MemoryLevel("DRAM", None, _word_energy(200.0), 1.0),
        MemoryLevel("GlobalBuffer", 108 * 1024 * 8, _word_energy(6.0), 16.0),
        MemoryLevel("NoC", 32 * 1024 * 8, _word_energy(2.0), 64.0),
        MemoryLevel("RegisterFile", 168 * 512 * 8, _word_energy(1.0), 336.0),
    ))
    return Device(
        name=name, hierarchy=hierarchy, num_pes=168, clock_ghz=0.2,
        mac_energy=0.075, platform="asic",
    )


def edge_asic(name: str = "iot-asic") -> Device:
    """Smaller IoT-class ASIC used by the end-to-end system experiments."""
    hierarchy = MemoryHierarchy((
        MemoryLevel("DRAM", None, _word_energy(200.0), 0.5),
        MemoryLevel("GlobalBuffer", 64 * 1024 * 8, _word_energy(6.0), 8.0),
        MemoryLevel("NoC", 16 * 1024 * 8, _word_energy(2.0), 32.0),
        MemoryLevel("RegisterFile", 64 * 256 * 8, _word_energy(1.0), 128.0),
    ))
    return Device(
        name=name, hierarchy=hierarchy, num_pes=64, clock_ghz=0.15,
        mac_energy=0.075, platform="asic",
    )


def zc706_like_fpga(name: str = "zc706-fpga") -> Device:
    """ZC706-class FPGA: 900 DSPs, ~19.1 Mb BRAM (the paper's 900-MAC
    reference device [22])."""
    hierarchy = MemoryHierarchy((
        MemoryLevel("DRAM", None, _word_energy(200.0), 4.0),
        MemoryLevel("GlobalBuffer", 2400 * 1024 * 8, _word_energy(8.0), 32.0),
        MemoryLevel("NoC", 128 * 1024 * 8, _word_energy(3.0), 128.0),
        MemoryLevel("RegisterFile", 900 * 128 * 8, _word_energy(1.2), 1800.0),
    ))
    return Device(
        name=name, hierarchy=hierarchy, num_pes=900, clock_ghz=0.15,
        mac_energy=0.11, platform="fpga",
    )
