"""Replication solver: Eq. 3 of the paper.

    [H] * k + [M] * m <= [A]

with ``m >= k`` and ``m`` a power-of-two multiple of ``k`` ("this
constraint greatly simplifies the system integration logic").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple

from repro.errors import SystemGenerationError
from repro.hls.resources import KernelResources
from repro.mnemosyne.plm import MemorySubsystem
from repro.system.board import Board
from repro.system.platform_data import DEFAULT_PLATFORM, PlatformModel
from repro.utils import is_power_of_two


@dataclass(frozen=True)
class ReplicationChoice:
    """One feasible (k, m) configuration with its total resource budget."""

    k: int
    m: int
    lut: int
    ff: int
    dsp: int
    bram: int

    @property
    def batch(self) -> int:
        return self.m // self.k

    def __str__(self) -> str:
        return (
            f"k={self.k} m={self.m} (batch={self.batch}): "
            f"{self.lut} LUT, {self.ff} FF, {self.dsp} DSP, {self.bram} BRAM"
        )


#: the largest m (and so k) any search considers
_MAX_M = 1024


class _MemorySums(NamedTuple):
    """The sums :func:`system_resources` reads, taken once per search."""

    brams: int
    ctrl_luts: int
    ctrl_ffs: int


def system_resources(
    kernel: KernelResources,
    memory: MemorySubsystem,
    k: int,
    m: int,
    platform: PlatformModel = DEFAULT_PLATFORM,
) -> ReplicationChoice:
    """Total post-integration resources for k accelerators and m PLM sets."""
    lut = (
        platform.base_lut
        + k * (kernel.lut + platform.acc_glue_lut)
        + m * memory.ctrl_luts
    )
    ff = platform.base_ff + k * (kernel.ff + platform.acc_glue_ff) + m * memory.ctrl_ffs
    dsp = k * kernel.dsp
    bram = m * memory.brams + k * kernel.bram
    return ReplicationChoice(k, m, lut, ff, dsp, bram)


def feasible_configurations(
    kernel: KernelResources,
    memory: MemorySubsystem,
    board: Board,
    platform: PlatformModel = DEFAULT_PLATFORM,
    max_m: int = _MAX_M,
) -> List[ReplicationChoice]:
    """All feasible (k, m) with k | m, both powers of two, m/k a power of two."""
    out: List[ReplicationChoice] = []
    m = 1
    while m <= max_m:
        k = 1
        while k <= m:
            choice = system_resources(kernel, memory, k, m, platform)
            if board.fits(choice.lut, choice.ff, choice.dsp, choice.bram):
                out.append(choice)
            k *= 2
        m *= 2
    return out


def max_parallel_config(
    kernel: KernelResources,
    memory: MemorySubsystem,
    board: Board,
    platform: PlatformModel = DEFAULT_PLATFORM,
    *,
    require_k_equals_m: bool = True,
) -> ReplicationChoice:
    """The configuration maximizing parallel kernels (the paper's choice).

    ``require_k_equals_m=True`` restricts to k = m ("we performed all
    remaining tests with k = m", Sec. VI).  Resource counts are not
    negative, so every total grows with k = m: the walk over k = m = 1,
    2, 4, ... stops at the first k that does not fit.
    """
    if require_k_equals_m:
        sums = _MemorySums(memory.brams, memory.ctrl_luts, memory.ctrl_ffs)
        candidates, k = [], 1
        while k <= _MAX_M:
            choice = system_resources(kernel, sums, k, k, platform)
            if not board.fits(choice.lut, choice.ff, choice.dsp, choice.bram):
                break
            candidates, k = [choice], 2 * k
    else:
        candidates = feasible_configurations(kernel, memory, board, platform)
    if not candidates:
        raise SystemGenerationError(
            "no feasible configuration: a single kernel + memory exceeds the board"
        )
    return max(candidates, key=lambda c: (c.k, c.m))


def validate_configuration(k: int, m: int) -> None:
    """Check the paper's structural constraints on (k, m)."""
    if k < 1 or m < k:
        raise SystemGenerationError(f"need m >= k >= 1, got k={k}, m={m}")
    if m % k != 0 or not is_power_of_two(m // k):
        raise SystemGenerationError(
            f"m must be a power-of-two multiple of k, got k={k}, m={m}"
        )
