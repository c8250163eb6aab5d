"""Python mirror of the generated C kernel.

Emits a Python function with the *same* loop structure and flat-address
arithmetic as the C99 kernel, compiled with ``exec``.  Running it against
the IR interpreter validates the whole codegen path (schedules, layouts,
accumulator transformation, address expressions) without a C toolchain.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.codegen.kernel import StagePlan, stage_plans
from repro.errors import IRError, LayoutError
from repro.layout.layout import Layout
from repro.poly.aff import AffTuple
from repro.poly.schedule import PolyProgram

_EWISE_PY = {"*": "*", "/": "/", "+": "+", "-": "-"}


def _addr_py(fn: AffTuple) -> str:
    e = fn.exprs[0]
    parts: List[str] = []
    for d, c in e.coeffs:
        parts.append(d if c == 1 else f"{c}*{d}")
    if e.const or not parts:
        parts.append(str(e.const))
    return " + ".join(parts)


def _emit_stage_py(plan: StagePlan, lines: List[str], indent: str) -> None:
    lines.append(f"{indent}# stage {plan.name}: {plan.kind} -> {plan.write_array}")
    write = f"{plan.write_array}[{_addr_py(plan.write_addr)}]"
    reads = [f"{arr}[{_addr_py(fn)}]" for arr, fn in plan.reads]

    def emit_loops(loop_specs, depth):
        for var, lo, hi in loop_specs:
            lines.append(f"{indent}{'    ' * depth}for {var} in range({lo}, {hi + 1}):")
            depth += 1
        return depth

    if plan.kind.startswith("ewise"):
        op = _EWISE_PY[plan.kind.split(":")[1]]
        d = emit_loops(plan.loops, 0)
        lines.append(f"{indent}{'    ' * d}{write} = {reads[0]} {op} {reads[1]}")
        return
    if plan.n_reduction_loops == 0:
        d = emit_loops(plan.loops, 0)
        lines.append(f"{indent}{'    ' * d}{write} = {' * '.join(reads)}")
        return
    if plan.accumulator_style:
        n_out = len(plan.loops) - plan.n_reduction_loops
        d = emit_loops(plan.loops[:n_out], 0)
        lines.append(f"{indent}{'    ' * d}acc = 0.0")
        d2 = emit_loops(plan.loops[n_out:], d)
        lines.append(f"{indent}{'    ' * d2}acc += {' * '.join(reads)}")
        lines.append(f"{indent}{'    ' * d}{write} = acc")
        return
    # memory accumulate
    red = set(plan.reduction_dims)
    init_loops = tuple(l for l in plan.loops if l[0] not in red)
    d = emit_loops(init_loops, 0)
    lines.append(f"{indent}{'    ' * d}{write} = 0.0")
    d = emit_loops(plan.loops, 0)
    lines.append(f"{indent}{'    ' * d}{write} += {' * '.join(reads)}")


def generate_python_kernel(
    prog: PolyProgram, name: str = "kernel_body", plans: Optional[List[StagePlan]] = None
) -> str:
    """Python source mirroring the C kernel (flat arrays as parameters)."""
    plans = plans or stage_plans(prog)
    fn = prog.function
    params = [d.name for d in fn.interface()] + [d.name for d in fn.temporaries()]
    lines = [f"def {name}({', '.join(params)}):"]
    for plan in plans:
        _emit_stage_py(plan, lines, "    ")
    return "\n".join(lines) + "\n"


def compile_python_kernel(source: str, name: str = "kernel_body") -> Callable:
    ns: Dict[str, object] = {}
    exec(compile(source, f"<generated {name}>", "exec"), ns)  # noqa: S102
    return ns[name]  # type: ignore[return-value]


def _layout_view(flat: np.ndarray, layout: Layout) -> np.ndarray:
    """``flat`` (shape ``(*batch, cells)``) viewed as the ``(*batch,
    *layout.shape)`` tensors it holds.  ``as_strided`` checks no bounds,
    so a row shorter than ``offset + size`` raises here."""
    if flat.shape[-1] < layout.offset + layout.size:
        raise LayoutError(
            f"buffer of {flat.shape[-1]} cells is too short for tensor "
            f"{layout.tensor!r} (layout spans {layout.offset + layout.size})"
        )
    step = flat.strides[-1]
    return np.lib.stride_tricks.as_strided(
        flat[..., layout.offset:],
        shape=flat.shape[:-1] + layout.shape,
        strides=flat.strides[:-1] + tuple(step * s for s in layout.strides),
    )


def pack_array(flat: np.ndarray, layout: Layout, arr: np.ndarray) -> None:
    """Scatter a tensor (or a ``(*batch, *shape)`` stack of them) into
    its flat, layout-addressed buffer(s)."""
    _layout_view(flat, layout)[...] = arr


def unpack_array(flat: np.ndarray, layout: Layout) -> np.ndarray:
    """Gather a tensor (or a stack of them) back out of flat buffer(s)."""
    return _layout_view(flat, layout).copy()


def run_python_kernel(
    prog: PolyProgram, inputs: Mapping[str, np.ndarray], name: str = "kernel_body"
) -> Dict[str, np.ndarray]:
    """Allocate flat buffers, run the generated Python kernel, reshape outputs."""
    fn = prog.function
    kernel = compile_python_kernel(generate_python_kernel(prog, name), name)
    buffers: Dict[str, np.ndarray] = {}
    for d in fn.decls.values():
        layout = prog.layouts[d.name]
        buffers[d.name] = np.zeros(layout.size, dtype=np.float64)
    for d in fn.inputs():
        if d.name not in inputs:
            raise IRError(f"missing input {d.name!r}")
        arr = np.asarray(inputs[d.name], dtype=np.float64)
        if arr.shape != d.shape:
            raise IRError(f"input {d.name!r} shape {arr.shape} != {d.shape}")
        pack_array(buffers[d.name], prog.layouts[d.name], arr)
    params = [d.name for d in fn.interface()] + [d.name for d in fn.temporaries()]
    kernel(*[buffers[p] for p in params])
    return {
        d.name: unpack_array(buffers[d.name], prog.layouts[d.name])
        for d in fn.outputs()
    }
