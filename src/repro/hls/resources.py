"""Kernel resource estimation (LUT / FF / DSP; BRAM is Mnemosyne's).

One operator instance of each required kind is shared across the
(sequentially executing) stages; unrolling replicates the datapath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.codegen.hlsdirectives import HlsDirectives
from repro.codegen.kernel import StagePlan
from repro.hls.opcost import DEFAULT_LIBRARY, OperatorLibrary, operators_for_kind
from repro.mnemosyne.bram import hls_internal_brams, hls_internal_lutram_luts


@dataclass(frozen=True)
class KernelResources:
    """HLS-side resources of one accelerator instance."""

    lut: int
    ff: int
    dsp: int
    bram: int = 0  # non-zero only for temporaries-inside kernels

    def __add__(self, other: "KernelResources") -> "KernelResources":
        return KernelResources(
            self.lut + other.lut,
            self.ff + other.ff,
            self.dsp + other.dsp,
            self.bram + other.bram,
        )

    def __str__(self) -> str:
        s = f"{self.lut} LUT, {self.ff} FF, {self.dsp} DSP"
        if self.bram:
            s += f", {self.bram} BRAM"
        return s


def estimate_resources(
    plans: List[StagePlan],
    directives: HlsDirectives,
    lib: OperatorLibrary = DEFAULT_LIBRARY,
    *,
    internal_arrays: dict | None = None,
) -> KernelResources:
    """Estimate one kernel's LUT/FF/DSP (+BRAM for internal arrays).

    ``internal_arrays`` maps array name -> words for temporaries kept
    inside the accelerator (the temporaries-inside ablation).
    """
    kinds: Set[str] = set()
    n_accesses = 0
    n_loops = 0
    for p in plans:
        kinds.update(operators_for_kind(p.kind))
        n_accesses += 1 + len(p.reads)
        n_loops += len(p.loops)
    u = directives.unroll_factor
    lut = lib.lut_base
    ff = lib.ff_base
    dsp = 0
    for k in sorted(kinds):
        op = lib.op(k)
        lut += op.lut * u
        ff += op.ff * u
        dsp += op.dsp * u
    lut += lib.lut_per_access * n_accesses * u
    ff += lib.ff_per_access * n_accesses * u
    lut += lib.lut_per_loop * n_loops
    ff += lib.ff_per_loop * n_loops
    lut += lib.lut_per_stage * len(plans)
    ff += lib.ff_per_stage * len(plans)
    bram = 0
    if internal_arrays:
        for words in internal_arrays.values():
            bram += hls_internal_brams(words)
            lut += hls_internal_lutram_luts(words)
    return KernelResources(lut, ff, dsp, bram)
