"""C99 kernel emission (Fig. 6): exported-PLM ``kernel_body``.

"To separate the generation of the computational part and the PLM units we
export all memory elements from the accelerator.  The compiler transforms
each memory element (e.g., array or tensor) into an interface parameter of
the code to be synthesized."  Arrays are flattened 1-D (the paper's Fig. 6
shows multi-dimensional arrays only "for readability").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.codegen.cast import (
    CArrayParam,
    CAssign,
    CBlock,
    CComment,
    CDecl,
    CExpr,
    CFor,
    CFunction,
    CIndex,
    CLiteral,
    CStmt,
    CVar,
    affine_cexpr,
)
from repro.codegen.cemit import emit_function
from repro.codegen.hlsdirectives import HlsDirectives
from repro.errors import IRError
from repro.poly.aff import AffTuple
from repro.poly.codegen_ast import LoopAst, build_loop_ast
from repro.poly.schedule import PolyProgram


@dataclass(frozen=True)
class StagePlan:
    """Flat-address description of one stage: the C kernel is emitted
    from it, and the HLS model reads it for latency and resources."""

    name: str
    kind: str                          # 'contract' | 'ewise:<op>'
    loops: Tuple[Tuple[str, int, int], ...]   # (var, lo, hi) outermost first
    n_reduction_loops: int
    reduction_dims: Tuple[str, ...]
    accumulator_style: bool
    write_array: str
    write_addr: AffTuple               # loop dims -> flat address (1 expr)
    reads: Tuple[Tuple[str, AffTuple], ...]   # (array, flat address fn)


def _flat_access(prog: PolyProgram, tensor: str, fn: AffTuple) -> Tuple[str, AffTuple]:
    layout = prog.layouts[tensor]
    dims = tuple(f"x{i}" for i in range(len(layout.shape)))
    return layout.array, layout.aff(dims).compose(fn)


def stage_plans(prog: PolyProgram, ast: Optional[LoopAst] = None) -> List[StagePlan]:
    """Lower the loop AST to flat-address stage plans.

    A loop variable named like one of the kernel's arrays would hide the
    array inside its nest, so it takes a fresh name (see
    :func:`free_name`).
    """
    ast = ast or build_loop_ast(prog)
    arrays = _array_names(prog)
    plans: List[StagePlan] = []
    for node in ast.stages:
        s = node.stmt
        loop_vars = [loop.var for loop in node.loops]
        taken = arrays | set(loop_vars)
        var: Dict[str, str] = {}
        for v in loop_vars:
            if v in arrays:
                var[v] = _fresh(v, taken)
                taken.add(var[v])
        warr, waddr = _flat_access(prog, s.write.tensor, s.write.fn)
        reads = tuple(_flat_access(prog, a.tensor, a.fn) for a in s.reads)
        plans.append(
            StagePlan(
                name=s.name,
                kind=s.kind,
                loops=tuple(
                    (var.get(loop.var, loop.var), loop.lo, loop.hi)
                    for loop in node.loops
                ),
                n_reduction_loops=node.n_reduction_loops,
                reduction_dims=tuple(var.get(d, d) for d in s.reduction_dims),
                accumulator_style=node.accumulator_style,
                write_array=warr,
                write_addr=waddr.rename(var),
                reads=tuple((arr, fn.rename(var)) for arr, fn in reads),
            )
        )
    return plans


@dataclass
class KernelCode:
    """Generated kernel artifact.

    ``function`` is the C AST, the one description of the kernel: its
    text is ``source``, ``cnative`` re-types and compiles it, and
    :mod:`repro.codegen.pyemit` prints it as Python.  ``plans`` are the
    stage plans it was emitted from, for the HLS model.
    """

    function: CFunction
    source: str
    interface_params: List[str]       # exported array parameter names, in order
    array_sizes: Dict[str, int]
    temporaries_internal: bool
    plans: List[StagePlan] = field(default_factory=list)


def _addr_cexpr(fn: AffTuple) -> CExpr:
    e = fn.exprs[0]
    return affine_cexpr([(c, d) for d, c in e.coeffs], e.const)


def _product_cexpr(reads, ewise_op: Optional[str] = None) -> CExpr:
    exprs: List[CExpr] = [CIndex(arr, _addr_cexpr(fn)) for arr, fn in reads]
    if ewise_op is not None:
        if len(exprs) != 2:
            raise IRError("entry-wise op needs exactly two operands")
        from repro.codegen.cast import CBinary

        return CBinary(ewise_op, exprs[0], exprs[1])
    out = exprs[0]
    from repro.codegen.cast import CBinary

    for e in exprs[1:]:
        out = CBinary("*", out, e)
    return out


def _array_names(prog: PolyProgram) -> Set[str]:
    """The names of ``prog``'s tensors and of the arrays that hold them."""
    return set(prog.function.decls) | {
        layout.array for layout in prog.layouts.values()
    }


def _fresh(stem: str, taken: Set[str]) -> str:
    """``stem`` unless ``taken`` holds it, else the first ``stem<i>``
    that it does not."""
    name, i = stem, 0
    while name in taken:
        name, i = f"{stem}{i}", i + 1
    return name


def free_name(prog: PolyProgram, stem: str) -> str:
    """A C name of ``prog``'s kernel that no array of it holds:
    ``stem`` unless one of the kernel's arrays is named so, else the
    first ``stem<i>`` that none is."""
    return _fresh(stem, _array_names(prog))


def _emit_stage(plan: StagePlan, directives: HlsDirectives, acc: str) -> List[CStmt]:
    """One loop nest per stage; ``acc`` names the accumulator."""
    out: List[CStmt] = [CComment(f"stage {plan.name}: {plan.kind} -> {plan.write_array}")]
    write = CIndex(plan.write_array, _addr_cexpr(plan.write_addr))

    def nest(loop_specs, body_stmts, innermost_extra_pragmas):
        node: CStmt | None = None
        for depth, (var, lo, hi) in enumerate(reversed(loop_specs)):
            blk = CBlock([node] if node is not None else body_stmts)
            is_innermost = depth == 0
            pragmas = list(innermost_extra_pragmas) if is_innermost else list(
                directives.outer_pragmas()
            )
            node = CFor(var, lo, hi, blk, pragmas=pragmas)
        return node if node is not None else CBlock(body_stmts)

    if plan.kind.startswith("ewise"):
        op = plan.kind.split(":")[1]
        body = [CAssign(write, _product_cexpr(plan.reads, ewise_op=op))]
        out.append(nest(plan.loops, body, directives.innermost_pragmas()))
        return out

    # contraction
    if plan.n_reduction_loops == 0:
        body = [CAssign(write, _product_cexpr(plan.reads))]
        out.append(nest(plan.loops, body, directives.innermost_pragmas()))
        return out

    if plan.accumulator_style:
        n_out = len(plan.loops) - plan.n_reduction_loops
        red_loops = plan.loops[n_out:]
        inner_body = [CAssign(CVar(acc), _product_cexpr(plan.reads), op="+=")]
        red_nest = nest(red_loops, inner_body, directives.innermost_pragmas())
        mid = [
            CDecl("double", acc, CLiteral(0.0)),
            red_nest,
            CAssign(write, CVar(acc)),
        ]
        # a rank-0 output has no loop body to hold ``acc``: give it a scope
        out.append(
            nest(plan.loops[:n_out], mid, []) if n_out else CBlock(mid, scoped=True)
        )
        return out

    # memory-accumulate fallback: zero-init nest + update nest
    red = set(plan.reduction_dims)
    init_loops = tuple(l for l in plan.loops if l[0] not in red)
    out.append(nest(init_loops, [CAssign(write, CLiteral(0.0))], []))
    out.append(
        nest(
            plan.loops,
            [CAssign(write, _product_cexpr(plan.reads), op="+=")],
            directives.innermost_pragmas(),
        )
    )
    return out


def generate_kernel(
    prog: PolyProgram,
    *,
    directives: Optional[HlsDirectives] = None,
    temporaries_internal: bool = False,
    name: str = "kernel_body",
) -> KernelCode:
    """Emit the C99 kernel.

    ``temporaries_internal=True`` keeps temporaries as local arrays inside
    the function (the paper's 33-BRAM ablation); the default exports them so
    Mnemosyne controls their implementation.
    """
    directives = directives or HlsDirectives()
    fn = prog.function
    sizes = {d.name: prog.layouts[d.name].size for d in fn.decls.values()}

    interface = [d.name for d in fn.interface()]
    temps = [d.name for d in fn.temporaries()]
    params = interface + ([] if temporaries_internal else temps)

    cfn = CFunction(
        name,
        params=[CArrayParam(p, sizes[p]) for p in params],
        comment=(
            f"Generated from CFDlang function {fn.name!r}.\n"
            "All memory elements are exported as interface parameters; each\n"
            "array is implemented by a PLM unit outside the accelerator."
        ),
    )
    body = cfn.body.stmts
    body.extend(directives.interface_pragmas(params))
    body.extend(directives.partition_pragmas(params))
    if temporaries_internal:
        for t in temps:
            body.append(CDecl("double", t, array_size=sizes[t]))
    plans = stage_plans(prog)
    acc = free_name(prog, "acc")  # a contraction's accumulator
    for plan in plans:
        body.extend(_emit_stage(plan, directives, acc))
    return KernelCode(
        function=cfn,
        source=emit_function(cfn),
        interface_params=params,
        array_sizes=sizes,
        temporaries_internal=temporaries_internal,
        plans=plans,
    )
