"""Multi-kernel programs: ordered kernels compiled as one flow session.

Real solver codes are not one kernel.  A spectral-element time step is a
small suite — interpolate to quadrature points, apply the (inverse)
Helmholtz operator, take gradients, update the iterate — where the
kernels share tensor declarations and feed each other's inputs.
:class:`Program` captures that shape: an ordered list of named CFDlang
kernels with consistency checking across their shared tensors.

:func:`compile_program` compiles every kernel of a program through the
staged flow as one session: one shared cache, one trace, one
single-flight coordinator.  Because stage cache keys are per-kernel
(content hash of the kernel's canonicalized source, and of its TeIL
subtree from lowering on — see :mod:`repro.flow.stages`), two programs
that share a kernel share all of its front-end work, and recompiling the
same program (e.g. every step of a :class:`~repro.flow.solver.
SolverLoop`) re-runs nothing at all.

:func:`compile_any` is the union entry point: it dispatches DSL text or
a CFDlang AST to a single-kernel :class:`~repro.flow.session.Flow`, and
a :class:`Program` (or its text serialization) to
:func:`compile_program`.  The executor ladder funnels everything through
it, so program jobs ride the thread/process/distributed/service
backends unchanged.

When :attr:`~repro.flow.options.FlowOptions.fusion` is set, a
:class:`FusionPlan` groups contiguous kernels and each group compiles as
*one* composite system: the per-kernel front end (parse/analyze/lower)
still runs per member — against the same cache keys an unfused compile
uses — then :func:`repro.teil.fuse.fuse_functions` merges the lowered
members and a function-seeded :class:`Flow` carries the composite
through every remaining stage under a cache identity composed from the
member fingerprints.  A group whose members lowered to the same content
as in an earlier compile (every warm solver step) reuses that compile's
composite from a bounded table instead of fusing again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cfdlang.ast import Program as CfdlangAst
from repro.cfdlang.parser import parse_program
from repro.cfdlang.printer import print_program
from repro.cfdlang.sema import analyze
from repro.errors import SystemGenerationError
from repro.flow.options import FlowOptions
from repro.flow.session import Flow, FlowTrace
from repro.flow.store import CacheBackend, SingleFlight, StageCache
from repro.teil.fuse import FusedKernel, fuse_functions
from repro.teil.program import Function

PROGRAM_HEADER = "=== cfdlang program"
KERNEL_HEADER = "=== kernel"


def is_program_text(source) -> bool:
    """Whether a source string is the text serialization of a
    :class:`Program` (as opposed to plain single-kernel CFDlang)."""
    return isinstance(source, str) and source.lstrip().startswith(PROGRAM_HEADER)


@dataclass(frozen=True)
class ProgramKernel:
    """One named kernel of a :class:`Program`.

    ``source`` is what the flow compiles (the object handed to
    :meth:`Program.add_kernel` — DSL text or a CFDlang AST); ``text`` is
    its canonical rendering, used for serialization, and ``ast`` its
    analyzed AST, parsed once at construction for shape checking.
    The kernel's name becomes :attr:`~repro.flow.options.FlowOptions.
    kernel_name` for its compilation, i.e. the generated C function name.
    """

    name: str
    source: object
    text: str = field(compare=False)
    ast: CfdlangAst = field(compare=False, repr=False)

    def shapes(self) -> Dict[str, Tuple[int, ...]]:
        """Declared tensor shapes of this kernel (name -> dims)."""
        return {d.name: tuple(d.shape) for d in self.ast.decls}


class Program:
    """An ordered, named collection of CFDlang kernels.

    Kernels are added in execution order; :meth:`validate` (run by
    :func:`compile_program`) checks that tensors sharing a name across
    kernels agree on their shape, so a chain like *helmholtz produces
    ``v``, gradient consumes ``v``* is well-formed by construction.
    """

    def __init__(self, name: str = "program") -> None:
        if not name or any(c.isspace() for c in name):
            raise SystemGenerationError(
                f"program name must be non-empty and whitespace-free, "
                f"got {name!r}"
            )
        self.name = name
        self.kernels: List[ProgramKernel] = []

    def __repr__(self) -> str:
        names = ", ".join(k.name for k in self.kernels)
        return f"Program({self.name!r}, kernels=[{names}])"

    def __iter__(self) -> Iterator[ProgramKernel]:
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    def kernel_names(self) -> List[str]:
        return [k.name for k in self.kernels]

    def add_kernel(self, name: str, source) -> "Program":
        """Append a kernel (DSL text or CFDlang AST); returns self.

        The source is parsed immediately, so syntax and semantic errors
        surface at construction with the kernel's name attached, not
        deep inside a later compile.
        """
        if not name.isidentifier():
            raise SystemGenerationError(
                f"kernel name {name!r} is not a valid identifier (it "
                "becomes the generated C function's name)"
            )
        if name in self.kernel_names():
            raise SystemGenerationError(
                f"program {self.name!r} already has a kernel named {name!r}"
            )
        if isinstance(source, CfdlangAst):
            ast = source
        elif isinstance(source, str):
            if is_program_text(source):
                raise SystemGenerationError(
                    f"kernel {name!r}: source is a serialized Program, "
                    "not a single CFDlang kernel; use Program.from_text"
                )
            ast = parse_program(source)
        else:
            raise SystemGenerationError(
                f"kernel {name!r}: source must be CFDlang text or a "
                f"Program AST, got {type(source).__name__}"
            )
        # canonicalize (and fail fast on bad input)
        text = print_program(ast)
        self.kernels.append(
            ProgramKernel(name=name, source=source, text=text, ast=analyze(ast))
        )
        return self

    # -- validation ----------------------------------------------------------
    def validate(self) -> "Program":
        """Check the program compiles as a unit; returns self.

        Requires at least one kernel and shape agreement for every
        tensor name shared between kernels (kinds may differ — an output
        of one kernel is legitimately an input of the next).
        """
        if not self.kernels:
            raise SystemGenerationError(
                f"program {self.name!r} has no kernels"
            )
        seen: Dict[str, Tuple[Tuple[int, ...], str]] = {}
        for kernel in self.kernels:
            for tensor, shape in kernel.shapes().items():
                if tensor in seen and seen[tensor][0] != shape:
                    prev_shape, prev_kernel = seen[tensor]
                    raise SystemGenerationError(
                        f"program {self.name!r}: tensor {tensor!r} is "
                        f"{list(prev_shape)} in kernel {prev_kernel!r} but "
                        f"{list(shape)} in kernel {kernel.name!r}"
                    )
                seen.setdefault(tensor, (shape, kernel.name))
        return self

    def shared_tensors(self) -> Dict[str, Tuple[int, ...]]:
        """Tensors declared by more than one kernel (name -> shape)."""
        counts: Dict[str, int] = {}
        shapes: Dict[str, Tuple[int, ...]] = {}
        for kernel in self.kernels:
            for tensor, shape in kernel.shapes().items():
                counts[tensor] = counts.get(tensor, 0) + 1
                shapes[tensor] = shape
        return {t: shapes[t] for t, n in counts.items() if n > 1}

    # -- serialization -------------------------------------------------------
    def to_text(self) -> str:
        """Serialize to the program text format.

        A header line names the program, then one ``=== kernel NAME ===``
        section per kernel holding its canonical DSL text.  ``===`` never
        begins a DSL line (``#`` is the outer-product operator, ``=``
        only appears after an identifier), so the format is unambiguous
        and round-trips through :meth:`from_text`.  This is what ships a
        program through the executor ladder's string job specs.
        """
        lines = [f"{PROGRAM_HEADER} {self.name} ==="]
        for kernel in self.kernels:
            lines.append(f"{KERNEL_HEADER} {kernel.name} ===")
            lines.append(kernel.text.rstrip("\n"))
        return "\n".join(lines) + "\n"

    __str__ = to_text

    @classmethod
    def from_text(cls, text: str) -> "Program":
        """Parse the :meth:`to_text` serialization back into a Program."""
        lines = text.strip().splitlines()
        if not lines or not lines[0].startswith(PROGRAM_HEADER):
            raise SystemGenerationError(
                f"program text must start with {PROGRAM_HEADER!r}"
            )
        header = lines[0].strip()
        name = header[len(PROGRAM_HEADER):].strip().rstrip("=").strip()
        if not name:
            raise SystemGenerationError("program header has no name")
        program = cls(name)
        current: Optional[str] = None
        body: List[str] = []

        def flush() -> None:
            if current is not None:
                program.add_kernel(current, "\n".join(body) + "\n")

        for line in lines[1:]:
            if line.strip().startswith(KERNEL_HEADER):
                flush()
                current = (
                    line.strip()[len(KERNEL_HEADER):].strip().rstrip("=").strip()
                )
                body = []
                if not current:
                    raise SystemGenerationError("kernel header has no name")
            elif current is None:
                if line.strip():
                    raise SystemGenerationError(
                        f"program text: content before first kernel "
                        f"header: {line.strip()!r}"
                    )
            else:
                body.append(line)
        flush()
        return program.validate()


@dataclass(frozen=True)
class FusionPlan:
    """Which contiguous kernel groups of a program compile as one system.

    ``groups`` are tuples of adjacent kernel names, in program order and
    disjoint; kernels in no group compile individually, exactly as
    without a plan.  ``keep`` lists outputs that must stay on a fused
    interface even if only consumed inside their group (solver carries).

    Build plans with :meth:`resolve`: ``"auto"`` greedily groups
    *streamed-compatible* adjacent kernels — a group starts at a kernel
    that streams an input (:meth:`~repro.teil.program.Function.
    streamed_inputs`); a kernel joins when it reads a tensor that is
    per-element *for the group* (a member output, or an input some
    member streams), produces no tensor the group already produced, and
    rebinds no tensor an earlier member read externally; a kernel
    touching no per-element data ends the group.  Explicit groups skip the
    compatibility heuristics but are validated for existence,
    contiguity, and disjointness; impossible merges (duplicate
    producers, read-before-write rebinding) still fail in
    :func:`~repro.teil.fuse.fuse_functions` with both kernels named.
    """

    groups: Tuple[Tuple[str, ...], ...] = ()
    keep: Tuple[str, ...] = ()

    @staticmethod
    def group_name(members: Tuple[str, ...]) -> str:
        return "fused_" + "_".join(members)

    def units(self, program: "Program") -> List[Union[str, Tuple[str, ...]]]:
        """Kernel names / fused groups in execution order."""
        starts = {group[0]: group for group in self.groups}
        grouped = {name for group in self.groups for name in group}
        out: List[Union[str, Tuple[str, ...]]] = []
        for kernel in program.kernels:
            if kernel.name in starts:
                out.append(starts[kernel.name])
            elif kernel.name not in grouped:
                out.append(kernel.name)
        return out

    def keep_for(
        self,
        group: Tuple[str, ...],
        program: "Program",
        functions: Mapping[str, Function],
    ) -> List[str]:
        """Outputs of ``group`` that must survive on the fused interface:
        the plan-wide keeps plus anything a kernel *outside* the group
        consumes downstream."""
        members = set(group)
        produced = {
            d.name for m in group for d in functions[m].outputs()
        }
        keep = {k for k in self.keep if k in produced}
        order = program.kernel_names()
        after = order[order.index(group[-1]) + 1:]
        for name in after:
            if name in members:
                continue
            for d in functions[name].inputs():
                if d.name in produced:
                    keep.add(d.name)
        return sorted(keep)

    @classmethod
    def resolve(
        cls,
        spec,
        program: "Program",
        functions: Mapping[str, Function],
        keep: Tuple[str, ...] = (),
    ) -> "FusionPlan":
        """Materialize a plan from an options-level fusion spec."""
        if spec == "auto":
            return cls(
                groups=_auto_groups(program, functions), keep=tuple(keep)
            )
        order = program.kernel_names()
        groups = tuple(tuple(g) for g in spec)
        claimed: Dict[str, Tuple[str, ...]] = {}
        for group in groups:
            if len(group) < 2:
                raise SystemGenerationError(
                    f"fusion group {group} needs at least two kernels"
                )
            for name in group:
                if name not in order:
                    raise SystemGenerationError(
                        f"fusion group names unknown kernel {name!r}; "
                        f"program {program.name!r} has: {', '.join(order)}"
                    )
                if name in claimed:
                    raise SystemGenerationError(
                        f"kernel {name!r} appears in two fusion groups: "
                        f"{claimed[name]} and {group}"
                    )
                claimed[name] = group
            first = order.index(group[0])
            if tuple(order[first:first + len(group)]) != group:
                raise SystemGenerationError(
                    f"fusion group {group} is not a contiguous run of "
                    f"program {program.name!r}'s kernels ({', '.join(order)})"
                )
        return cls(groups=groups, keep=tuple(keep))


def _auto_groups(
    program: "Program", functions: Mapping[str, Function]
) -> Tuple[Tuple[str, ...], ...]:
    """Greedy grouping of streamed-compatible adjacent kernels."""
    groups: List[Tuple[str, ...]] = []
    current: List[str] = []

    def flush() -> None:
        if len(current) >= 2:
            groups.append(tuple(current))
        current.clear()

    for kernel in program.kernels:
        fn = functions[kernel.name]
        if current and _auto_compatible(current, fn, functions):
            current.append(kernel.name)
        elif fn.streamed_inputs():
            # only a kernel with its own per-element input can *start*
            # a group; joining an existing group is judged relative to
            # the group's streamed set in _auto_compatible
            flush()
            current.append(kernel.name)
        else:
            # static-only kernel: runs once per batch, not per element;
            # fusing it into a streamed group would replay it per element
            flush()
    flush()
    return tuple(groups)


def _group_streamed(
    current: List[str], functions: Mapping[str, Function]
) -> set:
    """Tensors that are per-element from the group's point of view:
    member outputs (chain intermediates stream with the element even
    when re-read many times) plus the inputs some member streams (what
    one member streams, the whole group streams — see
    ``system_port_hints`` in teil.fuse)."""
    streamed: set = set()
    for m in current:
        mfn = functions[m]
        streamed.update(d.name for d in mfn.outputs())
        streamed.update(mfn.streamed_inputs())
    return streamed


def _auto_compatible(
    current: List[str], fn: Function, functions: Mapping[str, Function]
) -> bool:
    group_outputs: set = set()
    group_external_reads: set = set()
    for m in current:
        mfn = functions[m]
        for d in mfn.inputs():
            if d.name not in group_outputs:
                group_external_reads.add(d.name)
        group_outputs.update(d.name for d in mfn.outputs())
    mine_inputs = {d.name for d in fn.inputs()}
    if not (mine_inputs & _group_streamed(current, functions)):
        # no per-element dataflow link: fusing buys no transfer reuse
        # (sharing only static operands does not make the chain stream)
        return False
    outs = {d.name for d in fn.outputs()}
    if outs & group_outputs:
        return False  # duplicate producer
    if outs & group_external_reads:
        return False  # would rebind an earlier member's external read
    return True


@dataclass
class ProgramResult:
    """Per-kernel :class:`~repro.flow.pipeline.FlowResult`\\ s of one
    compiled program, in kernel order."""

    program: Program
    results: Dict[str, "FlowResult"]
    #: the plan the program compiled under (None: no fusion requested)
    fusion: Optional[FusionPlan] = None
    #: fused-group records keyed by the composite kernel's name
    fused: Dict[str, FusedKernel] = field(default_factory=dict)

    def __getitem__(self, kernel_name: str) -> "FlowResult":
        try:
            return self.results[kernel_name]
        except KeyError:
            raise SystemGenerationError(
                f"program {self.program.name!r} has no kernel "
                f"{kernel_name!r} (kernels: "
                f"{', '.join(self.results) or 'none'})"
            ) from None

    def __iter__(self):
        return iter(self.results.values())

    def __len__(self) -> int:
        return len(self.results)

    def kernel_names(self) -> List[str]:
        return list(self.results)

    def chain(self) -> List[Tuple[object, object]]:
        """(function, poly) pairs in unit order — the form
        :func:`repro.exec.programs.run_chain_batch` executes.  Under a
        fusion plan each fused group is one entry, so the whole group
        runs as a single ``backend.run_batch`` call."""
        return [(r.function, r.poly) for r in self.results.values()]

    def transfer_bytes_per_element(self) -> int:
        """Modeled per-element host<->accelerator traffic of the whole
        chain (streamed bytes in + out, summed over units).  Comparing a
        fused against an unfused compile of the same program gives the
        transfer bytes the fusion's on-device intermediates eliminated."""
        return sum(
            res.footprint.bytes_in_per_element + res.footprint.bytes_out_per_element
            for res in self.results.values()
        )

    def summary(self) -> str:
        from repro.utils import ascii_table

        rows = []
        for name, res in self.results.items():
            sim = res.sim
            fk = self.fused.get(name)
            rows.append(
                (
                    name if fk is None else f"{name} [{len(fk.members)} fused]",
                    len(res.function.statements),
                    "-" if sim is None else f"{sim.k}x{sim.m}",
                    "-"
                    if sim is None
                    else f"{sim.n_elements / sim.total_seconds:,.0f}",
                )
            )
        table = ascii_table(
            ["kernel", "stmts", "k x m", "elems/s (model)"],
            rows,
            title=f"Program {self.program.name!r}",
        )
        notes = []
        for name, fk in self.fused.items():
            internal = ", ".join(fk.internalized) or "none"
            notes.append(
                f"fused {name!r} <- {' + '.join(fk.members)} "
                f"(on-device intermediates: {internal})"
            )
        if self.fused:
            notes.append(
                "modeled transfer bytes/element: "
                f"{self.transfer_bytes_per_element():,}"
            )
        return table + ("\n" + "\n".join(notes) if notes else "")


#: fused composites by what :meth:`~repro.teil.fuse.FusedKernel.
#: fingerprint` hashes — group name, members' content keys, kept
#: outputs; fusion is a pure function of those, so entries never go stale
_FUSED: "OrderedDict[tuple, FusedKernel]" = OrderedDict()
_FUSED_SIZE = 64
_fused_lock = threading.Lock()


def _fused_kernel(
    members: Sequence[Function],
    member_keys: Sequence[str],
    name: str,
    keep: Sequence[str],
) -> FusedKernel:
    """``fuse_functions(members, ...)``, or the composite an earlier
    compile built from members of the same content."""
    key = (name, tuple(member_keys), tuple(keep))
    with _fused_lock:
        fk = _FUSED.get(key)
        if fk is not None:
            _FUSED.move_to_end(key)
            return fk
    fk = fuse_functions(members, name=name, keep_outputs=keep)
    with _fused_lock:
        _FUSED[key] = fk
        while len(_FUSED) > _FUSED_SIZE:
            _FUSED.popitem(last=False)
    return fk


class ProgramFlow:
    """One compilation session over every kernel of a :class:`Program`.

    All kernels share the session's cache, trace, and single-flight
    coordinator; each compiles under ``options.for_kernel(name)``, so
    only the generated function name differs between them.
    """

    def __init__(
        self,
        program: Program,
        options: Optional[FlowOptions] = None,
        *,
        cache: Optional[CacheBackend] = None,
        trace: Optional[FlowTrace] = None,
        flight: Optional[SingleFlight] = None,
    ) -> None:
        self.program = program.validate()
        self.options = options or FlowOptions()
        self.cache = cache if cache is not None else StageCache()
        self.trace = trace
        self.flight = flight

    def _kernel_flow(self, kernel: ProgramKernel) -> Flow:
        return Flow(
            kernel.source,
            self.options.for_kernel(kernel.name),
            cache=self.cache,
            trace=self.trace,
            flight=self.flight,
            fingerprint=kernel.text,
        )

    def run(self) -> ProgramResult:
        if self.options.fusion is None:
            results: Dict[str, "FlowResult"] = {}
            for kernel in self.program.kernels:
                results[kernel.name] = self._kernel_flow(kernel).run()
            return ProgramResult(program=self.program, results=results)
        return self._run_fused()

    def _run_fused(self) -> ProgramResult:
        # per-kernel front end first — identical flows (and so identical
        # parse/analyze/lower cache keys) to an unfused compile, which is
        # what lets fused and unfused sessions share front-end entries
        flows = {
            kernel.name: self._kernel_flow(kernel).run_until("lower")
            for kernel in self.program.kernels
        }
        functions = {name: flow["function"] for name, flow in flows.items()}
        plan = FusionPlan.resolve(
            self.options.fusion,
            self.program,
            functions,
            keep=self.options.fusion_keep,
        )
        results: Dict[str, "FlowResult"] = {}
        fused: Dict[str, FusedKernel] = {}
        for unit in plan.units(self.program):
            if isinstance(unit, str):
                results[unit] = flows[unit].resume()
                continue
            fk = _fused_kernel(
                [functions[m] for m in unit],
                [flows[m].key("function") for m in unit],
                FusionPlan.group_name(unit),
                plan.keep_for(unit, self.program, functions),
            )
            flow = Flow.from_function(
                fk.function,
                self.options.for_kernel(fk.function.name),
                cache=self.cache,
                trace=self.trace,
                flight=self.flight,
                fingerprint=fk.fingerprint(),
            )
            results[fk.function.name] = flow.run()
            fused[fk.function.name] = fk
        return ProgramResult(
            program=self.program, results=results, fusion=plan, fused=fused
        )


def compile_program(
    program: Union[Program, str],
    options: Optional[FlowOptions] = None,
    *,
    cache: Optional[CacheBackend] = None,
    trace: Optional[FlowTrace] = None,
    flight: Optional[SingleFlight] = None,
) -> ProgramResult:
    """Compile every kernel of a program through the staged flow.

    Accepts a :class:`Program` or its :meth:`~Program.to_text`
    serialization; :func:`compile_any` also takes a single kernel.
    """
    if isinstance(program, str):
        program = Program.from_text(program)
    return ProgramFlow(
        program, options, cache=cache, trace=trace, flight=flight
    ).run()


def compile_any(
    source,
    options: Optional[FlowOptions] = None,
    *,
    cache: Optional[CacheBackend] = None,
    trace: Optional[FlowTrace] = None,
    flight: Optional[SingleFlight] = None,
) -> Union["FlowResult", ProgramResult]:
    """Compile any flow input: single-kernel sources run one
    :class:`~repro.flow.session.Flow`; programs (objects or program
    text) run :func:`compile_program`.  This is the dispatch point the
    executor ladder uses, so program jobs flow through every backend —
    thread, process, distributed, service — without those backends
    knowing the difference.
    """
    if isinstance(source, Program) or is_program_text(source):
        return compile_program(
            source, options, cache=cache, trace=trace, flight=flight
        )
    return Flow(
        source, options, cache=cache, trace=trace, flight=flight
    ).run()
