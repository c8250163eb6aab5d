"""IR functions: declarations + single-assignment statement list."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from repro.errors import IRError
from repro.teil.ops import Operation
from repro.teil.types import TensorDecl, TensorKind


@dataclass(frozen=True)
class Statement:
    """``target = op`` in pseudo-SSA form (each target assigned once)."""

    target: str
    op: Operation

    @property
    def operands(self) -> Tuple[str, ...]:
        return self.op.operands

    def __str__(self) -> str:
        return f"{self.target} = {self.op}"


@dataclass
class Function:
    """A compiled CFDlang kernel: tensor decls and statements."""

    name: str
    decls: Dict[str, TensorDecl] = field(default_factory=dict)
    statements: List[Statement] = field(default_factory=list)
    #: the streamed inputs a fusion recorded (see :mod:`repro.teil.fuse`);
    #: a class attribute, not a field, so ``__init__`` and ``==`` skip it
    system_port_hints = None

    # -- declaration helpers -------------------------------------------------
    def declare(self, name: str, shape: Tuple[int, ...], kind: TensorKind) -> TensorDecl:
        if name in self.decls:
            raise IRError(f"duplicate tensor {name!r}")
        d = TensorDecl(name, tuple(shape), kind)
        self.decls[name] = d
        return d

    def fresh_name(self, stem: str = "t") -> str:
        i = 0
        while f"{stem}{i}" in self.decls:
            i += 1
        return f"{stem}{i}"

    def shapes(self) -> Dict[str, Tuple[int, ...]]:
        return {n: d.shape for n, d in self.decls.items()}

    # -- views ------------------------------------------------------------------
    def inputs(self) -> List[TensorDecl]:
        return [d for d in self.decls.values() if d.kind is TensorKind.INPUT]

    def outputs(self) -> List[TensorDecl]:
        return [d for d in self.decls.values() if d.kind is TensorKind.OUTPUT]

    def temporaries(self) -> List[TensorDecl]:
        return [
            d
            for d in self.decls.values()
            if d.kind in (TensorKind.LOCAL, TensorKind.TRANSIENT)
        ]

    def interface(self) -> List[TensorDecl]:
        """Interface tensors in declaration order (inputs then outputs)."""
        return self.inputs() + self.outputs()

    def consumers(self, name: str) -> List[int]:
        """Statement indices that read the given tensor."""
        return [i for i, s in enumerate(self.statements) if name in s.operands]

    def streamed_inputs(self) -> FrozenSet[str]:
        """The inputs that change per element, which the system streams
        between host and PLMs; every other input is a static operand,
        moved once for all elements.

        This is the streaming policy.  An input that exactly one
        statement reads is per-element data; one that several statements
        read is a reused operator such as ``S``.  A fused chain reads a
        per-element state once in each member, so a fused function
        answers with the ``system_port_hints`` its fusion recorded.
        """
        if self.system_port_hints is not None:
            return self.system_port_hints
        return frozenset(
            d.name for d in self.inputs() if len(self.consumers(d.name)) == 1
        )

    # -- validation ---------------------------------------------------------------
    def validate(self) -> "Function":
        """Check SSA form, shapes, and def-before-use; returns self."""
        shapes = self.shapes()
        defined = {d.name for d in self.inputs()}
        assigned: set = set()
        for s in self.statements:
            if s.target not in self.decls:
                raise IRError(f"assignment to undeclared tensor {s.target!r}")
            if self.decls[s.target].kind is TensorKind.INPUT:
                raise IRError(f"assignment to input {s.target!r}")
            if s.target in assigned:
                raise IRError(f"tensor {s.target!r} assigned twice (not SSA)")
            for o in s.operands:
                if o not in self.decls:
                    raise IRError(f"use of undeclared tensor {o!r}")
                if o not in defined:
                    raise IRError(f"tensor {o!r} used before definition")
            got = s.op.output_shape(shapes)
            want = shapes[s.target]
            if got != want:
                raise IRError(
                    f"statement {s}: shape {got} does not match declared {want}"
                )
            assigned.add(s.target)
            defined.add(s.target)
        for d in self.outputs():
            if d.name not in assigned:
                raise IRError(f"output {d.name!r} never assigned")
        for d in self.temporaries():
            if d.name not in assigned:
                raise IRError(f"temporary {d.name!r} never assigned")
        return self

    def dead_tensors(self) -> List[str]:
        """Temporaries that are never read (candidates for elimination)."""
        used: set = set()
        for s in self.statements:
            used.update(s.operands)
        return [
            d.name
            for d in self.temporaries()
            if d.name not in used
        ]

    def __str__(self) -> str:
        lines = [f"func {self.name}:"]
        for d in self.decls.values():
            lines.append(f"  {d}")
        for s in self.statements:
            lines.append(f"  {s}")
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Content hash of the function (name, decls, statements).

        The canonical text rendering is a faithful serialization of the
        IR, so hashing it gives a stable identity: two kernels that lower
        to the same TeIL function — regardless of the DSL text they came
        from — share a fingerprint.  The flow's stage cache keys every
        post-lowering stage off this value (plus that stage's own option
        slice), which is what lets multi-kernel programs and repeated
        solver steps share front-end work at per-kernel granularity.
        """
        return hashlib.sha256(str(self).encode()).hexdigest()


def copy_function(fn: Function) -> Function:
    """Shallow-copy a function (decls dict and statement list are fresh)."""
    out = Function(fn.name)
    out.decls = dict(fn.decls)
    out.statements = list(fn.statements)
    out.system_port_hints = fn.system_port_hints
    return out
