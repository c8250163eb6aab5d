"""Memory-sharing optimization over the compatibility graph.

Three modes:

* ``NONE``     — one PLM unit per array (the paper's baseline: 31 BRAMs per
  Inverse Helmholtz kernel).
* ``MATCHING`` — pairwise merges chosen by maximum-weight matching on the
  address-space compatibility graph, weights = BRAM savings.  This mirrors
  the pairwise-merge behaviour of the Mnemosyne release used in the paper
  and reproduces its 18 BRAMs per kernel.
* ``CLIQUE``   — exact minimum-BRAM clique cover: any number of mutually
  compatible arrays overlay one unit.  More aggressive than the paper's
  tool (12 BRAMs for the Helmholtz kernel); reported as an ablation.

Merged units take the strongest port class of their members and the
capacity of the largest member (all members overlay at offset 0; liveness
disjointness makes this legal — Sec. V-A2).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

import networkx as nx

from repro.errors import MemoryArchitectureError
from repro.mnemosyne.bram import PortClass, brams_for_unit
from repro.mnemosyne.config import MnemosyneConfig
from repro.mnemosyne.plm import MemorySubsystem, PLMUnit


class SharingMode(enum.Enum):
    NONE = "none"
    MATCHING = "matching"
    CLIQUE = "clique"


def _merged_port_class(config: MnemosyneConfig, members: Tuple[str, ...]) -> PortClass:
    if any(
        config.port_classes[m] is PortClass.ACCELERATOR_AND_SYSTEM for m in members
    ):
        return PortClass.ACCELERATOR_AND_SYSTEM
    return PortClass.ACCELERATOR_ONLY


def _unit_for(config: MnemosyneConfig, members: Tuple[str, ...], idx: int) -> PLMUnit:
    words = max(config.sizes[m] for m in members)
    banks = max(config.banks_of(m) for m in members)
    return PLMUnit(
        f"plm{idx}", tuple(members), words, _merged_port_class(config, members), banks
    )


def _merge_saving(config: MnemosyneConfig, a: str, b: str) -> int:
    """BRAM tiles saved by overlaying two arrays in one unit."""
    alone = brams_for_unit(
        config.sizes[a], config.port_classes[a], config.banks_of(a)
    ) + brams_for_unit(config.sizes[b], config.port_classes[b], config.banks_of(b))
    merged_words = max(config.sizes[a], config.sizes[b])
    merged_banks = max(config.banks_of(a), config.banks_of(b))
    merged = brams_for_unit(
        merged_words, _merged_port_class(config, (a, b)), merged_banks
    )
    return alone - merged


def _share_matching(config: MnemosyneConfig) -> List[Tuple[str, ...]]:
    g = nx.Graph()
    g.add_nodes_from(config.arrays)
    # sorted: among equal-weight optima networkx follows edge insertion
    # order, so set order would tie the PLM layout to the hash seed
    for a, b in sorted(sorted(e) for e in config.address_space_edges):
        w = _merge_saving(config, a, b)
        if w > 0:
            g.add_edge(a, b, weight=w)
    matching = nx.max_weight_matching(g, maxcardinality=False)
    paired = {}
    for a, b in matching:
        paired[a] = b
        paired[b] = a
    groups: List[Tuple[str, ...]] = []
    done = set()
    for a in config.arrays:
        if a in done:
            continue
        if a in paired:
            b = paired[a]
            groups.append(tuple(sorted((a, b))))
            done.update((a, b))
        else:
            groups.append((a,))
            done.add(a)
    return groups


#: the cover is exponential in the worst case; the suites top out at 18 arrays
_MAX_CLIQUE_ARRAYS = 30


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _share_clique(config: MnemosyneConfig) -> List[Tuple[str, ...]]:
    """Minimum-BRAM clique cover, exact.

    The best cover of a set (bitmask) of arrays branches on the cliques
    holding its lowest array, grown through that array's compatible
    neighbours in the set, and is memoized on the mask.  Ties go to the
    numerically largest clique.  A clique is skipped when a single-bank
    array of the set, compatible with all of it, could join it without
    raising its BRAMs: the grown clique is a larger mask that costs no
    more, and dropping a single-bank array from another group never
    raises that group's BRAMs.  (Not so for multi-bank arrays:
    ``brams_for_unit`` is not monotone in the bank count.)
    """
    arrays = sorted(config.arrays)
    n = len(arrays)
    if n > _MAX_CLIQUE_ARRAYS:
        raise MemoryArchitectureError(
            f"CLIQUE sharing covers at most {_MAX_CLIQUE_ARRAYS} arrays, "
            f"got {n}"
        )
    idx = {a: i for i, a in enumerate(arrays)}
    adj = [0] * n
    for e in config.address_space_edges:
        a, b = tuple(e)
        if a in idx and b in idx:
            adj[idx[a]] |= 1 << idx[b]
            adj[idx[b]] |= 1 << idx[a]
    single = sum(1 << i for i, a in enumerate(arrays) if config.banks_of(a) == 1)
    costs: Dict[int, int] = {}

    def cost(clique: int) -> int:
        if clique not in costs:
            members = tuple(arrays[i] for i in _bits(clique))
            costs[clique] = _unit_for(config, members, 0).brams
        return costs[clique]

    best: Dict[int, Tuple[int, int]] = {0: (0, 0)}  # mask -> (BRAMs, -clique)

    def solve(mask: int) -> int:
        if mask not in best:
            low = (mask & -mask).bit_length() - 1
            stack = [(1 << low, adj[low] & mask)]
            options = []
            while stack:
                # ``common``: arrays of the mask compatible with all of clique
                clique, common = stack.pop()
                brams = cost(clique)
                if all(cost(clique | 1 << j) > brams for j in _bits(common & single)):
                    options.append((brams + solve(mask ^ clique), -clique))
                # grow by higher arrays only, so each clique comes up once
                for j in _bits(common & -(1 << clique.bit_length())):
                    stack.append((clique | 1 << j, common & adj[j]))
            best[mask] = min(options)
        return best[mask][0]

    mask = (1 << n) - 1
    solve(mask)
    groups: List[Tuple[str, ...]] = []
    while mask:
        clique = -best[mask][1]
        groups.append(tuple(arrays[i] for i in _bits(clique)))
        mask ^= clique
    return sorted(groups)


def validate_groups(config: MnemosyneConfig, groups: List[Tuple[str, ...]]) -> None:
    """Legality: every pair inside a group must be address-space compatible."""
    for group in groups:
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if not config.compatible(a, b):
                    raise MemoryArchitectureError(
                        f"illegal sharing: {a!r} and {b!r} are not address-space compatible"
                    )


def build_memory_subsystem(
    config: MnemosyneConfig,
    mode: SharingMode = SharingMode.MATCHING,
    groups: List[Tuple[str, ...]] | None = None,
) -> MemorySubsystem:
    """Build the per-kernel memory subsystem under the given sharing mode.

    ``groups`` overrides the optimizer with an explicit grouping (still
    legality-checked) — used for what-if exploration.
    """
    if groups is None:
        if mode is SharingMode.NONE:
            groups = [(a,) for a in config.arrays]
        elif mode is SharingMode.MATCHING:
            groups = _share_matching(config)
        elif mode is SharingMode.CLIQUE:
            groups = _share_clique(config)
        else:  # pragma: no cover
            raise MemoryArchitectureError(f"unknown sharing mode {mode}")
    validate_groups(config, groups)
    subsystem = MemorySubsystem(
        [_unit_for(config, g, i) for i, g in enumerate(groups)]
    )
    return subsystem.validate()


def sharing_report(config: MnemosyneConfig) -> Dict[str, int]:
    """BRAM totals per sharing mode (for Fig. 8-style summaries)."""
    return {
        mode.value: build_memory_subsystem(config, mode).brams
        for mode in SharingMode
    }
