"""Kernel chain fusion: merge an ordered list of functions into one.

A multi-kernel :class:`~repro.flow.program.Program` compiles each kernel
to its own accelerator system, so every tensor a kernel hands to the
next one round-trips through host arrays — the dominant cost the paper's
memory architecture work then has to optimize away.  :func:`fuse_functions`
removes the boundary instead: it merges a contiguous chain of lowered
:class:`~repro.teil.program.Function`\\ s into one composite function
whose statements are the members' statements in order, with

* member temporaries SSA-renamed into a per-member namespace so the
  concatenation stays single-assignment,
* cross-kernel shape checking (a tensor shared by name between members
  must agree on shape, with the offending pair of kernels named),
* *intermediates* — outputs consumed by a later member and not listed in
  ``keep_outputs`` — demoted to internal temporaries, so they vanish
  from the fused interface: the system model stops streaming them and
  the memory subsystem accounts them as on-device buffers, and
* :attr:`Function.system_port_hints` recording which fused inputs some
  member streams (:meth:`Function.streamed_inputs`), so the composite
  does not misread a state tensor shared by several members (read once
  each) as a reused static operand.

The result is wrapped in a :class:`FusedKernel` whose
:meth:`~FusedKernel.fingerprint` composes the member functions' content
fingerprints, giving the flow a stage-cache identity for the fused
artifact that derives from — and only from — its members and the kept
outputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import IRError
from repro.teil.ops import Contraction, Ewise, Operation
from repro.teil.program import Function, Statement
from repro.teil.types import TensorDecl, TensorKind


@dataclass(frozen=True)
class FusedKernel:
    """One fused composite kernel and its provenance.

    ``function`` is the merged :class:`Function`; ``members`` the fused
    kernel names in chain order; ``internalized`` the member outputs
    demoted to on-device temporaries; ``kept`` the outputs explicitly
    preserved on the interface although they are consumed inside the
    group (solver carries, downstream consumers).
    """

    function: Function
    members: Tuple[str, ...]
    member_fingerprints: Tuple[str, ...]
    internalized: Tuple[str, ...] = ()
    kept: Tuple[str, ...] = ()

    def fingerprint(self) -> str:
        """Content identity composed from the member fingerprints.

        Fusion is a deterministic function of the member functions and
        the kept-output set, so hashing those (rather than the fused
        text) gives the flow a cache key for every post-``lower`` stage
        of the fused kernel that unfused per-kernel compiles can be
        related to: same members + same keeps => same fused artifacts.
        """
        h = hashlib.sha256()
        h.update(b"teil-fuse/1\n")
        h.update(self.function.name.encode() + b"\n")
        for fp in self.member_fingerprints:
            h.update(fp.encode() + b"\n")
        h.update(("keep:" + ",".join(sorted(self.kept))).encode())
        return h.hexdigest()


def _rename_op(op: Operation, mapping: Dict[str, str]) -> Operation:
    if isinstance(op, Contraction):
        return Contraction(
            operands=tuple(mapping.get(o, o) for o in op.operands),
            operand_indices=op.operand_indices,
            output_indices=op.output_indices,
        )
    if isinstance(op, Ewise):
        return Ewise(
            kind=op.kind,
            lhs=mapping.get(op.lhs, op.lhs),
            rhs=mapping.get(op.rhs, op.rhs),
        )
    raise IRError(f"cannot rename operands of {type(op).__name__}")


def _check_shapes(chain: Sequence[Function]) -> None:
    # interface tensors only: member temporaries are private (and about
    # to be SSA-renamed), so colliding t0/t1 names across members are fine
    seen: Dict[str, Tuple[Tuple[int, ...], str]] = {}
    for fn in chain:
        for d in fn.interface():
            if d.name in seen and seen[d.name][0] != d.shape:
                shape, owner = seen[d.name]
                raise IRError(
                    f"cannot fuse: tensor {d.name!r} is {list(shape)} in "
                    f"kernel {owner!r} but {list(d.shape)} in kernel "
                    f"{fn.name!r}"
                )
            seen.setdefault(d.name, (d.shape, fn.name))


def fuse_functions(
    chain: Sequence[Function],
    name: str = "",
    keep_outputs: Iterable[str] = (),
) -> FusedKernel:
    """Merge an ordered chain of functions into one composite kernel.

    An output of member *i* that a later member reads binds internally:
    it is not re-read from the interface, and unless it appears in
    ``keep_outputs`` (or is never consumed inside the chain) it is
    demoted to an internal temporary.  Refuses, with both kernels named,
    chains where two members produce the same tensor or a member writes
    a tensor an *earlier* member already read (fusing would reorder that
    dataflow).
    """
    chain = list(chain)
    if not chain:
        raise IRError("cannot fuse an empty kernel chain")
    names = [fn.name for fn in chain]
    if len(set(names)) != len(names):
        raise IRError(f"cannot fuse: duplicate kernel names in chain {names}")
    _check_shapes(chain)
    fused_name = name or "fused_" + "_".join(names)

    producers: Dict[str, str] = {}   # tensor -> producing member
    consumed_by: Dict[str, List[str]] = {}  # tensor -> later members reading it
    external_reads: Dict[str, str] = {}  # tensor read before any member wrote it
    for fn in chain:
        for d in fn.inputs():
            if d.name in producers:
                consumed_by.setdefault(d.name, []).append(fn.name)
            else:
                external_reads.setdefault(d.name, fn.name)
        for d in fn.outputs():
            if d.name in producers:
                raise IRError(
                    f"cannot fuse: kernels {producers[d.name]!r} and "
                    f"{fn.name!r} both produce tensor {d.name!r}"
                )
            if d.name in external_reads:
                raise IRError(
                    f"cannot fuse: kernel {fn.name!r} writes tensor "
                    f"{d.name!r}, which kernel {external_reads[d.name]!r} "
                    "reads from the chain's own inputs — fusing would "
                    "rebind that read to the later value"
                )
            producers[d.name] = fn.name

    keep = set(keep_outputs)
    fused = Function(fused_name)
    hint_names: set = set()
    for fn in chain:
        # rename this member's temporaries into a fresh namespace
        rename: Dict[str, str] = {}
        for d in fn.temporaries():
            candidate = f"{fn.name}_{d.name}"
            while candidate in fused.decls or any(
                candidate in other.decls for other in chain
            ):
                candidate += "_"
            rename[d.name] = candidate
        for d in fn.decls.values():
            target = rename.get(d.name, d.name)
            if target in fused.decls:
                # an interface tensor shared with an earlier member:
                # shapes already checked; an internal producer/consumer
                # pair keeps the producer's OUTPUT decl
                continue
            fused.declare(target, d.shape, d.kind)
        for s in fn.statements:
            fused.statements.append(
                Statement(rename.get(s.target, s.target), _rename_op(s.op, rename))
            )
        # a per-element input of any member stays per-element for the
        # fused system, even when other members re-read it
        hint_names.update(fn.streamed_inputs())

    internalized = []
    for tensor, member in producers.items():
        if tensor in consumed_by and tensor not in keep:
            d = fused.decls[tensor]
            fused.decls[tensor] = TensorDecl(tensor, d.shape, TensorKind.LOCAL)
            internalized.append(tensor)
    fused.validate()

    # a member output read by a later member is not a fused input
    fused.system_port_hints = frozenset(
        n for n in hint_names if fused.decls[n].kind is TensorKind.INPUT
    )
    return FusedKernel(
        function=fused,
        members=tuple(names),
        member_fingerprints=tuple(fn.fingerprint() for fn in chain),
        internalized=tuple(internalized),
        kept=tuple(sorted(keep & set(producers))),
    )
