"""Memory compatibility graphs (Fig. 5).

Nodes are arrays; edges indicate sharing potential:

* **address-space compatible** — lifetimes never overlap for the entire
  execution of the accelerator, so the arrays can overlay the same storage;
* **memory-interface compatible** — a total temporal ordering of memory
  operations exists such that the same type (read or write) never happens
  at the same time on both arrays, so they can share physical ports/banks.

Interface arrays (kernel inputs/outputs) are grouped separately, as in the
figure, because the system integration logic also accesses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set

from repro.memory.liveness import ArrayLiveness, stage_liveness
from repro.poly.schedule import PolyProgram


@dataclass
class CompatibilityGraph:
    """Arrays + compatibility edges, ready to export to Mnemosyne."""

    arrays: List[str]
    interface_arrays: List[str]
    sizes: Dict[str, int]                      # words (64-bit elements)
    liveness: Dict[str, ArrayLiveness]
    address_space_edges: Set[FrozenSet[str]] = field(default_factory=set)
    interface_edges: Set[FrozenSet[str]] = field(default_factory=set)

    def address_space_compatible(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.address_space_edges

    def interface_compatible(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.interface_edges

    def to_dict(self) -> dict:
        """Serializable form (part of the Mnemosyne configuration artifact)."""
        return {
            "arrays": list(self.arrays),
            "interface_arrays": list(self.interface_arrays),
            "sizes": dict(self.sizes),
            "liveness": {
                n: [l.first_write_stage, l.last_read_stage]
                for n, l in self.liveness.items()
            },
            "address_space_edges": sorted(sorted(e) for e in self.address_space_edges),
            "interface_edges": sorted(sorted(e) for e in self.interface_edges),
        }

    @staticmethod
    def from_dict(d: dict) -> "CompatibilityGraph":
        return CompatibilityGraph(
            arrays=list(d["arrays"]),
            interface_arrays=list(d["interface_arrays"]),
            sizes={k: int(v) for k, v in d["sizes"].items()},
            liveness={
                n: ArrayLiveness(n, int(v[0]), int(v[1]))
                for n, v in d["liveness"].items()
            },
            address_space_edges={frozenset(e) for e in d["address_space_edges"]},
            interface_edges={frozenset(e) for e in d["interface_edges"]},
        )

    def render(self) -> str:
        """Fig. 5-style text rendering (interface arrays grouped left)."""
        lines = ["memory compatibility graph", "  interface: " + " ".join(self.interface_arrays)]
        temps = [a for a in self.arrays if a not in self.interface_arrays]
        lines.append("  temporaries: " + " ".join(temps))
        lines.append("  address-space edges:")
        for e in sorted(sorted(x) for x in self.address_space_edges):
            lines.append(f"    {e[0]} -- {e[1]}")
        lines.append("  interface edges:")
        for e in sorted(sorted(x) for x in self.interface_edges):
            lines.append(f"    {e[0]} -- {e[1]}")
        return "\n".join(lines)


def _access_stages(prog: PolyProgram, tensor: str, mode: str) -> Set[int]:
    """Stages at which the tensor is read ('r') or written ('w') *by the
    accelerator*.  Host-side transfers are excluded: the single AXI master
    serializes them, so they can always be temporally ordered and never
    create a same-type conflict on the PLM ports."""
    stages: Set[int] = set()
    if mode == "r":
        for s in prog.readers_of(tensor):
            stages.add(prog.stage_of(s))
    else:
        for s in prog.writers_of(tensor):
            stages.add(prog.stage_of(s))
    return stages


def build_compatibility_graph(prog: PolyProgram) -> CompatibilityGraph:
    """Derive the compatibility graph from the scheduled program."""
    live = stage_liveness(prog)
    fn = prog.function
    arrays = list(fn.decls)
    interface = [d.name for d in fn.interface()]
    sizes = {n: prog.layouts[n].size for n in arrays}
    graph = CompatibilityGraph(arrays, interface, sizes, live)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            if not live[a].overlaps(live[b]):
                graph.address_space_edges.add(frozenset((a, b)))
            ra, rb = _access_stages(prog, a, "r"), _access_stages(prog, b, "r")
            wa, wb = _access_stages(prog, a, "w"), _access_stages(prog, b, "w")
            if not (ra & rb) and not (wa & wb):
                graph.interface_edges.add(frozenset((a, b)))
    return graph
