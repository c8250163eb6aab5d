"""Python mirror of the generated C kernel, and its buffer layout.

:func:`generate_python_kernel` prints the C AST the HLS kernel is
emitted from (:func:`repro.codegen.kernel.generate_kernel`) as a Python
function: the same loops, statements, flat-address arithmetic and
summation order, compiled with ``exec``.  Running it against the IR
interpreter validates the whole codegen path (schedules, layouts,
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

from repro.codegen.cast import CAssign, CBlock, CComment, CDecl, CFor, CFunction, CStmt
from repro.errors import LayoutError
from repro.layout.layout import Layout
from repro.mnemosyne.plm import MemorySubsystem
from repro.poly.schedule import PolyProgram


def _print_stmt(stmt: CStmt, lines: List[str], depth: int) -> None:
    pad = "    " * depth
    if isinstance(stmt, CBlock):
        for s in stmt.stmts:
            _print_stmt(s, lines, depth)
    elif isinstance(stmt, CFor):
        lines.append(f"{pad}for {stmt.var} in range({stmt.lo}, {stmt.hi + 1}):")
        _print_stmt(stmt.body, lines, depth + 1)
    elif isinstance(stmt, CAssign):
        lines.append(f"{pad}{stmt.lhs} {stmt.op} {stmt.rhs}")
    elif isinstance(stmt, CDecl):
        init = stmt.init if stmt.array_size is None else f"[0.0] * {stmt.array_size}"
        lines.append(f"{pad}{stmt.name} = {init}")
    elif isinstance(stmt, CComment):
        lines.append(f"{pad}# {stmt.text}")
    # pragmas direct HLS and have no meaning on the host


def generate_python_kernel(fn: CFunction) -> str:
    """``fn`` printed as a Python function over flat arrays: its
    parameters, loops (``range(lo, hi + 1)``), assignments, declarations
    (a local array as a list of zeros) and comments; pragmas dropped."""
    lines = [f"def {fn.name}({', '.join(p.name for p in fn.params)}):"]
    _print_stmt(fn.body, lines, 1)
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
    prog: PolyProgram,
    inputs: Mapping[str, np.ndarray],
    memory: Optional[MemorySubsystem] = None,
) -> Dict[str, np.ndarray]:
    """One element through the ``loops`` backend, every input streamed;
    returns the outputs.  Given the kernel's ``memory`` subsystem, the
    members of each PLM unit share one buffer, as Mnemosyne overlays
    them (:func:`repro.exec.backend.batch_buffers`)."""
    from repro.exec import get_backend  # repro.exec imports this module

    fn = prog.function
    elements = {name: np.asarray(arr)[None] for name, arr in inputs.items()}
    outputs = get_backend("loops").run_batch(
        fn, elements, {}, [d.name for d in fn.inputs()], prog, memory=memory
    )
    return {name: np.asarray(arr)[0] for name, arr in outputs.items()}
