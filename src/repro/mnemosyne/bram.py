"""BRAM primitive models for Xilinx UltraScale+ (xczu7ev: 312 BRAM36).

Geometry (UltraScale+ block RAM, 36 Kb per BRAM36 tile):

* **SDP 512x72** — simple dual port: one write port + one read port, up to
  72 bits wide.  A 64-bit word fits one tile; capacity 512 words/tile.
* **TDP 1024x36** — true dual port: two independent read/write ports, but
  at most 36 bits per port, so a 64-bit word spans 2 tiles side by side;
  capacity 1024 words per 2-tile column pair.

Port-class policy (calibrated against the paper's reported PLM sizes — 31
BRAMs/kernel unshared, 18 shared, Sec. VI):

* Arrays **streamed per element** through the system interconnect (D, u, v
  in the Inverse Helmholtz) get TDP geometry: one port serves the
  accelerator, the second the integration logic, which drains/fills PLMs
  for batched rounds (Fig. 7c).
* **Static operands** (e.g. S, transferred once for all elements) and
  kernel temporaries need only the accelerator's 1R+1W: SDP geometry.

HLS-internal arrays (the temporaries-inside ablation) follow Vivado's
defaults: small arrays (<= 128 words) map to distributed LUTRAM; larger
ones to dual-port RAM (TDP geometry).
"""

from __future__ import annotations

import enum

from repro.errors import MemoryArchitectureError
from repro.utils import ceil_div

BRAM36_BITS = 36 * 1024
SDP_DEPTH = 512     # words of 64 bit per tile in 512x72 mode
TDP_DEPTH = 1024    # words per 2-tile column pair in 1024x36 mode
TDP_COLUMNS = 2     # 64-bit word spans two 36-bit tiles
LUTRAM_MAX_WORDS = 128
WORD_BITS = 64


class PortClass(enum.Enum):
    """Who needs concurrent access to the PLM unit."""

    ACCELERATOR_ONLY = "single"      # 1R + 1W from the kernel: SDP
    ACCELERATOR_AND_SYSTEM = "dual"  # + interconnect port: TDP


def brams_for_unit(words: int, port_class: PortClass, banks: int = 1) -> int:
    """BRAM36 tiles for one PLM unit of ``words`` 64-bit elements.

    ``banks > 1`` builds a cyclic multi-bank unit (requested by HLS array
    partitioning for unrolled kernels): each bank holds ``ceil(words /
    banks)`` words in its own tiles, so the unit sustains ``banks``
    concurrent accesses per port class at a possible rounding cost.
    """
    if words <= 0:
        raise MemoryArchitectureError(f"PLM unit needs positive size, got {words}")
    if banks < 1:
        raise MemoryArchitectureError(f"PLM unit needs >= 1 bank, got {banks}")
    per_bank = ceil_div(words, banks)
    if port_class is PortClass.ACCELERATOR_ONLY:
        return banks * ceil_div(per_bank, SDP_DEPTH)
    return banks * TDP_COLUMNS * ceil_div(per_bank, TDP_DEPTH)


def hls_internal_is_lutram(words: int) -> bool:
    """Vivado HLS maps small internal arrays to distributed LUTRAM."""
    return words <= LUTRAM_MAX_WORDS


def hls_internal_brams(words: int) -> int:
    """BRAM36 tiles Vivado HLS spends on one internal array (RAM_2P)."""
    if hls_internal_is_lutram(words):
        return 0
    return TDP_COLUMNS * ceil_div(words, TDP_DEPTH)


def hls_internal_lutram_luts(words: int) -> int:
    """LUT cost of a LUTRAM-mapped internal array (64-bit words; an
    UltraScale+ LUT6 provides 64 bits of distributed RAM)."""
    if not hls_internal_is_lutram(words):
        return 0
    return words * WORD_BITS // 64 * 2  # RAM64X1D uses 2 LUTs per 64x1 bit
