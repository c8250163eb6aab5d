"""Python mirror of the generated C kernel, and its buffer layout.

Emits a Python function with the *same* loop structure and flat-address
arithmetic as the C99 kernel, compiled with ``exec``.  Running it against
the IR interpreter validates the whole codegen path (schedules, layouts,
accumulator transformation, address expressions) without a C toolchain.

:func:`pack_array` and :func:`unpack_array` move tensors in and out of
the flat, layout-addressed buffers both kernels read.  A buffer may be
lane-interleaved: with ``lanes`` L, cell ``a * L + l`` holds flat
address ``a`` of element ``l``, the layout the host C kernel computes L
elements at a time in (one element per SIMD lane); ``lanes=1`` is the
plain per-element buffer.
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


def _layout_view(flat: np.ndarray, layout: Layout, lanes: int = 1) -> np.ndarray:
    """``flat`` (shape ``(*batch, cells)``) viewed as the ``(*batch,
    lanes, *layout.shape)`` tensors it holds: cell ``a * lanes + l``
    holds flat address ``a`` of lane ``l``.  ``as_strided`` checks no
    bounds, so a row shorter than the layout's span raises here."""
    span = (layout.offset + layout.size) * lanes
    if flat.shape[-1] < span:
        raise LayoutError(
            f"buffer of {flat.shape[-1]} cells is too short for tensor "
            f"{layout.tensor!r} (layout spans {span})"
        )
    step = flat.strides[-1]
    return np.lib.stride_tricks.as_strided(
        flat[..., layout.offset * lanes:],
        shape=flat.shape[:-1] + (lanes,) + layout.shape,
        strides=flat.strides[:-1]
        + (step,)
        + tuple(step * lanes * s for s in layout.strides),
    )


def _lane_groups(stack: np.ndarray, lanes: int):
    """A ``(Ne, *shape)`` stack split into its whole lane groups, viewed
    as ``(Ne // lanes, lanes, *shape)``, and the ``Ne % lanes`` elements
    of the partial group after them."""
    groups = len(stack) // lanes
    whole = stack[: groups * lanes].reshape((groups, lanes) + stack.shape[1:])
    return whole, stack[groups * lanes:]


def pack_array(
    flat: np.ndarray, layout: Layout, arr: np.ndarray, lanes: int = 1
) -> None:
    """Scatter tensors into flat, layout-addressed, lane-interleaved
    buffer(s).

    A 1-D ``flat`` of ``size * lanes`` cells gets the one tensor ``arr``
    in every lane; a ``(G, size * lanes)`` stack gets the ``(Ne, *shape)``
    stack ``arr``, element ``e`` in lane ``e % lanes`` of row ``e //
    lanes``.  Lanes past ``Ne`` keep what they held (the zeros of a
    fresh buffer).  With ``lanes=1`` a row is one element's buffer.
    """
    view = _layout_view(flat, layout, lanes)
    if flat.ndim == 1:
        view[...] = arr
        return
    whole, rest = _lane_groups(arr, lanes)
    view[: len(whole)] = whole
    if len(rest):
        view[len(whole), : len(rest)] = rest


def unpack_array(
    flat: np.ndarray,
    layout: Layout,
    lanes: int = 1,
    count: Optional[int] = None,
) -> np.ndarray:
    """Gather tensors back out of :func:`pack_array`'s buffers: the
    tensor in lane 0 of a 1-D ``flat``, or the ``(count, *shape)``
    stack of a ``(G, size * lanes)`` one (``count`` defaults to every
    lane, ``G * lanes``).  The result is a new array; de-interleaving is
    its one copy."""
    view = _layout_view(flat, layout, lanes)
    if flat.ndim == 1:
        return view[0].copy()
    count = len(flat) * lanes if count is None else count
    out = np.empty((count,) + layout.shape)
    whole, rest = _lane_groups(out, lanes)
    whole[...] = view[: len(whole)]
    if len(rest):
        rest[...] = view[len(whole), : len(rest)]
    return out


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
