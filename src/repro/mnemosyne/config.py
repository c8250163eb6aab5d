"""Mnemosyne input metadata (step iv of Fig. 4).

"We modified the CFDlang compiler to automatically create the Mnemosyne
input metadata during the compilation.  This is crucial since the compiler
can support sophisticated partitioning or sharing of data among multiple
memory banks through code analysis."

The configuration carries, per exported array: size, word width, port
class, and the compatibility edges from liveness analysis.  It is
JSON-serializable (the artifact the flow hands to the memory generator).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set

from repro.errors import MemoryArchitectureError
from repro.memory.compat import CompatibilityGraph
from repro.mnemosyne.bram import PortClass
from repro.poly.schedule import PolyProgram
from repro.teil.types import TensorKind


@dataclass
class MnemosyneConfig:
    """Everything Mnemosyne needs to build the memory subsystem."""

    arrays: List[str]
    sizes: Dict[str, int]                      # 64-bit words
    word_bits: int
    port_classes: Dict[str, PortClass]
    address_space_edges: Set[FrozenSet[str]] = field(default_factory=set)
    interface_edges: Set[FrozenSet[str]] = field(default_factory=set)
    banks: Dict[str, int] = field(default_factory=dict)  # cyclic partition factors

    def __post_init__(self) -> None:
        for a in self.arrays:
            if a not in self.sizes:
                raise MemoryArchitectureError(f"array {a!r} has no size")
            if a not in self.port_classes:
                raise MemoryArchitectureError(f"array {a!r} has no port class")

    def banks_of(self, array: str) -> int:
        return self.banks.get(array, 1)

    def compatible(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.address_space_edges

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "arrays": self.arrays,
                "sizes": self.sizes,
                "word_bits": self.word_bits,
                "port_classes": {a: p.value for a, p in self.port_classes.items()},
                "address_space_edges": sorted(sorted(e) for e in self.address_space_edges),
                "interface_edges": sorted(sorted(e) for e in self.interface_edges),
                "banks": self.banks,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "MnemosyneConfig":
        d = json.loads(text)
        return MnemosyneConfig(
            arrays=list(d["arrays"]),
            sizes={k: int(v) for k, v in d["sizes"].items()},
            word_bits=int(d["word_bits"]),
            port_classes={k: PortClass(v) for k, v in d["port_classes"].items()},
            address_space_edges={frozenset(e) for e in d["address_space_edges"]},
            interface_edges={frozenset(e) for e in d["interface_edges"]},
            banks={k: int(v) for k, v in d.get("banks", {}).items()},
        )


def port_class_assignment(prog: PolyProgram) -> Dict[str, PortClass]:
    """Assign port classes per the streaming policy (see bram.py).

    Outputs and the inputs :meth:`~repro.teil.program.Function.
    streamed_inputs` names change per element: they stream through the
    interconnect and need the extra system port.  The other inputs are
    *static operands* such as ``S``, transferred once, and like every
    temporary they need only the accelerator's ports.
    """
    fn = prog.function
    streamed = fn.streamed_inputs()
    out: Dict[str, PortClass] = {}
    for d in fn.decls.values():
        if d.kind is TensorKind.OUTPUT or d.name in streamed:
            out[d.name] = PortClass.ACCELERATOR_AND_SYSTEM
        else:
            out[d.name] = PortClass.ACCELERATOR_ONLY
    return out


def config_from_compat(
    graph: CompatibilityGraph,
    port_classes: Dict[str, PortClass],
    word_bits: int = 64,
    banks: Dict[str, int] | None = None,
) -> MnemosyneConfig:
    """The Mnemosyne configuration of ``graph``'s arrays.

    A static operand shares no PLM unit: it is loaded once and read by
    every element its PLM set runs, while the graph's liveness spans
    one kernel call, so an array written after its last read would
    clobber it for the next element.  Its address-space edges go.
    """
    static = {
        a for a in graph.interface_arrays
        if port_classes[a] is PortClass.ACCELERATOR_ONLY
    }
    return MnemosyneConfig(
        arrays=list(graph.arrays),
        sizes=dict(graph.sizes),
        word_bits=word_bits,
        port_classes=dict(port_classes),
        address_space_edges={
            e for e in graph.address_space_edges if static.isdisjoint(e)
        },
        interface_edges=set(graph.interface_edges),
        banks=dict(banks or {}),
    )


def build_config(prog: PolyProgram) -> MnemosyneConfig:
    """Compiler-side convenience: compat graph + port classes in one call."""
    from repro.memory.compat import build_compatibility_graph

    return config_from_compat(build_compatibility_graph(prog), port_class_assignment(prog))
