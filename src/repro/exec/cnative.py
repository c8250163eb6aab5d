"""The ``cnative`` execution backend: the generated C99 kernel, compiled.

Takes the kernel the flow emits for HLS (:func:`repro.codegen.kernel.
generate_kernel`) and compiles it with the system C compiler into a
shared library that computes several elements per kernel call, one per
SIMD lane, as the paper replicates one kernel over independent
elements.  The C AST is re-emitted with every array element typed
``lane``, a GCC/Clang vector of ``CFD_LANES`` doubles.  The HLS kernel
accumulates a contraction through memory, the shape that pipelines at
II=1 on the FPGA; on a CPU the partial sums belong in registers, so each
contraction stage with reduction loops is re-emitted from its
:class:`~repro.codegen.kernel.StagePlan` as one register-blocked nest
(:func:`lane_kernel_source`).  Every output still sums the same terms in
the same order from +0.0, each operator applies the same IEEE operation
lane by lane, and ``-ffp-contract=off`` keeps the compiler from fusing
multiply-adds, so every lane is bit-identical to the ``loops``
reference, which runs the HLS kernel itself.  ``#pragma HLS`` lines are
unknown pragmas to a host compiler and are ignored; the HLS text itself
is untouched.

``CFD_LANES`` follows the compiled ISA: 8 when the compiler defines
``__AVX512F__`` (512-bit registers), 4 with ``__AVX__`` (256-bit), else
2 (the 128-bit SSE2 or NEON baseline).  A lane type wider than the
registers runs slower than scalar code.  The build adds
``-march=native`` when the compiler builds a small lane function with
it (one probe per compiler) and the library reports its lane count
through ``kernel_lanes()``.  :func:`~repro.exec.backend.batch_buffers`
starts every buffer on an ``8 * CFD_LANES``-byte boundary, so no lane
vector straddles two cache lines; at 8 lanes that is what makes the
wider vectors pay.  ``lane`` stays declared ``aligned(8)`` all the
same: a vector type otherwise demands its own size as alignment, and a
caller's NumPy buffer may be only 8-byte aligned.  The alignment is for
speed; every buffer is correct.

An appended ``kernel_batch`` walks a run of lane groups in C, as the
paper's host streams its elements through an accelerator: streamed
inputs and outputs advance by one row of the lane-interleaved buffers,
static inputs and exported temporaries stay put.  It calls the
``static`` ``kernel_body`` once per lane group; gcc 12 at ``-O3`` does
not inline a body that size (it emits ``call kernel_body`` for the
fused smoother and for Helmholtz), so the ``restrict`` on
``kernel_batch``'s pointers does not reach the body, whose parameters
are plain ``lane`` arrays.  No buffer the kernel writes aliases another
parameter all the same: the outputs and temporaries have fresh buffers,
and the kernel only reads its inputs.

A batch's lane groups split into one contiguous span per usable CPU, as
the paper runs k copies of its kernel over independent elements, and
each span is one ``ctypes`` call of ``kernel_batch`` on its rows of the
streamed buffers.  The calling thread runs the first span while a
process-wide pool of threads, started on first use and forgotten in a
forked child, runs the others; ``ctypes`` releases the GIL for each
call.  Every span but the first gets temporaries of its own, and all
share the static inputs, which the kernel only reads.  Each element
runs the same code on the same inputs at any span count, so the split
leaves the results bit for bit as they are.

The streamed outputs come back as :class:`~repro.exec.backend.Packed`
lane buffers, which the next kernel of a chain, or the next solver
step, adopts as its input without a copy.  Libraries are cached by
source, compiler and flags for the process lifetime and removed at
exit, and each program object's kernel is generated once.

The backend reports itself unavailable (and callers auto-skip it) when
no C compiler is on ``PATH``; set ``CFDLANG_CC`` to pick a specific one.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import replace
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.cast import (
    CAssign,
    CBlock,
    CComment,
    CDecl,
    CFor,
    CIndex,
    CLiteral,
    CStmt,
    affine_cexpr,
)
from repro.codegen.cemit import emit_function
from repro.codegen.kernel import (
    StagePlan,
    _addr_cexpr,
    _product_cexpr,
    free_name,
    generate_kernel,
)
from repro.errors import ExecBackendError, IRError
from repro.exec.backend import (
    Batch,
    ExecBackend,
    KernelMemo,
    Packed,
    _aligned_array,
    batch_buffers,
    resolved_program,
)
from repro.poly.schedule import PolyProgram
from repro.teil.program import Function

_CC_CANDIDATES = ("cc", "gcc", "clang")
_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c99", "-ffp-contract=off"]

#: the lane type; ``-DCFD_LANES=n`` overrides the ISA's lane count
_PRELUDE = """\
#ifndef CFD_LANES
#if defined(__AVX512F__)
#define CFD_LANES 8
#elif defined(__AVX__)
#define CFD_LANES 4
#else
#define CFD_LANES 2
#endif
#endif
typedef double lane __attribute__((vector_size(8 * CFD_LANES), aligned(8)));

"""

_build_dir: Optional[str] = None
_compiled: Dict[str, KernelLibrary] = {}
_compile_lock = threading.Lock()  # one writer per kernel file


class KernelLibrary(NamedTuple):
    """A compiled kernel: its batch entry point and lane count."""

    #: ``kernel_batch(ng, s0, p0, s1, p1, ...)``
    batch: Callable
    #: elements per ``kernel_body`` call, as the library reports it
    lanes: int


def find_compiler() -> Optional[str]:
    """Path of the C compiler to use, or None when the host has none."""
    override = os.environ.get("CFDLANG_CC")
    if override:
        return shutil.which(override)
    for cand in _CC_CANDIDATES:
        path = shutil.which(cand)
        if path:
            return path
    return None


def _ensure_build_dir() -> str:
    global _build_dir
    if _build_dir is None:
        _build_dir = tempfile.mkdtemp(prefix="cfdlang-cnative-")
        atexit.register(shutil.rmtree, _build_dir, True)
    return _build_dir


def _run_compiler(cc: str, args: Sequence[str], **kwargs):
    try:
        return subprocess.run([cc, *args], capture_output=True, text=True, **kwargs)
    except OSError as exc:
        raise ExecBackendError(f"C compiler {cc} did not run: {exc}") from None


#: lane arithmetic for the ``-march=native`` probe to compile and assemble
_PROBE = _PRELUDE + """\
void cfd_probe(long n, lane *restrict a, const lane *restrict b) {
  for (long i = 0; i < n; ++i)
    a[i] = a[i] * b[i] + b[i] / a[i];
}
"""


@functools.lru_cache(maxsize=None)
def _isa_flags(cc: str) -> Tuple[str, ...]:
    """``-march=native`` when ``cc`` builds lane code with it, else no
    flag.

    The probe is lane arithmetic taken through the assembler, not an
    empty unit: a compiler newer than its assembler accepts the flag
    yet emits vector instructions the assembler cannot encode.
    """
    c_path = os.path.join(_ensure_build_dir(), "isa-probe.c")
    with open(c_path, "w") as fh:
        fh.write(_PROBE)
    probe = _run_compiler(
        cc, [*_CFLAGS, "-march=native", "-c", "-o", c_path[:-1] + "o", c_path]
    )
    return ("-march=native",) if probe.returncode == 0 else ()


def lane_kernel_source(prog: PolyProgram) -> Tuple[str, int]:
    """``prog``'s ``kernel_body`` with every element typed ``lane``, and
    its parameter count.

    The HLS kernel's C AST re-emitted: parameters and local arrays
    become ``lane`` and the function ``static``.  A contraction stage
    with reduction loops becomes :func:`_register_blocked`'s nest; every
    other stage keeps its statements.  Where a kernel array is named
    ``lane``, which hides the type inside ``kernel_body``, the source
    first names the type afresh.
    """
    code = generate_kernel(prog)
    fn = code.function
    acc, vec = free_name(prog, "acc"), free_name(prog, "lane")
    stmts = fn.body.stmts
    # each stage's statements start with its comment
    starts = [i for i, s in enumerate(stmts) if isinstance(s, CComment)]
    if len(starts) != len(code.plans):
        raise IRError(
            f"kernel {fn.name!r} has {len(starts)} stage comments for "
            f"{len(code.plans)} stages"
        )
    body: List[CStmt] = [
        replace(s, ctype=vec) if isinstance(s, CDecl) else s
        for s in stmts[: starts[0] if starts else len(stmts)]
    ]
    for plan, lo, hi in zip(code.plans, starts, starts[1:] + [len(stmts)]):
        if plan.kind == "contract" and plan.n_reduction_loops:
            body += [stmts[lo], _register_blocked(plan, acc, vec)]
        else:
            body += stmts[lo:hi]
    lane_fn = replace(
        fn,
        params=[replace(p, ctype=vec) for p in fn.params],
        body=CBlock(body),
        return_type="static void",
    )
    typedef = "" if vec == "lane" else f"typedef lane {vec};\n"
    return typedef + emit_function(lane_fn), len(fn.params)


def _register_blocked(plan: StagePlan, acc: str, vec: str) -> CStmt:
    """A contraction stage summed in registers: inside the stage's
    output loops but the innermost one, a zeroed ``vec`` array ``acc``
    with one entry per iteration of that loop, the reduction loops in
    plan order around it adding the HLS statement's product, then one
    loop that stores ``acc`` into the output array.

    Each output sums the same terms in the same order from +0.0 as the
    HLS kernel's zero-store and ``+=`` nests (or its scalar
    accumulator), so every lane keeps the ``loops`` result bit for bit.
    """
    red = set(plan.reduction_dims)
    out = [loop for loop in plan.loops if loop[0] not in red]
    outer, inner = out[:-1], out[-1:]  # a rank-0 output has no inner loop
    slot = CIndex(acc, affine_cexpr(
        [(1, var) for var, _, _ in inner], -sum(lo for _, lo, _ in inner)
    ))
    width = math.prod(hi - lo + 1 for _, lo, hi in inner)
    stage = CBlock([
        CDecl(vec, acc, CLiteral("{0}"), width),
        _nest([loop for loop in plan.loops if loop[0] in red] + inner,
              CAssign(slot, _product_cexpr(plan.reads), op="+=")),
        _nest(inner, CAssign(
            CIndex(plan.write_array, _addr_cexpr(plan.write_addr)), slot
        )),
    ], scoped=not outer)  # a scope of its own where no loop gives one
    return _nest(outer, stage)


def _nest(loops, stmt: CStmt) -> CStmt:
    """``stmt`` inside ``(var, lo, hi)`` loops, outermost first."""
    for var, lo, hi in reversed(loops):
        stmt = CFor(var, lo, hi, CBlock([stmt]))
    return stmt


def compile_kernel_library(
    source: str, n_params: int, lanes: Optional[int] = None
) -> KernelLibrary:
    """Compile a lane-typed ``kernel_body`` source (see
    :func:`lane_kernel_source`) with an appended ``kernel_batch(ng, s0,
    p0, s1, p1, ...)`` entry point, which calls ``kernel_body`` once per
    lane group with each ``p_i`` advanced by ``s_i`` lanes.

    ``lanes`` overrides the ISA's lane count (``-DCFD_LANES``), so a
    test can build every width on any host.  Cached by source, compiler
    and flags; raises :class:`ExecBackendError` when no compiler is
    found or the compile fails.
    """
    params = ", ".join(f"long s{i}, lane *restrict p{i}" for i in range(n_params))
    args = ", ".join(f"p{i} + g * s{i}" for i in range(n_params))
    source = (
        _PRELUDE
        + source
        + f"\nvoid kernel_batch(long ng, {params}) {{\n"
        f"  for (long g = 0; g < ng; ++g)\n    kernel_body({args});\n}}\n"
        "\nint kernel_lanes(void) { return CFD_LANES; }\n"
    )
    with _compile_lock:
        cc = find_compiler()
        if cc is None:
            raise ExecBackendError(
                "no C compiler found (tried $CFDLANG_CC, cc, gcc, clang)"
            )
        flags = [*_CFLAGS, *_isa_flags(cc)]
        if lanes is not None:
            flags.append(f"-DCFD_LANES={int(lanes)}")
        key = hashlib.sha256(
            "\0".join([source, cc, *flags]).encode()
        ).hexdigest()
        if key in _compiled:
            return _compiled[key]
        build = _ensure_build_dir()
        c_path = os.path.join(build, f"kernel-{key[:16]}.c")
        so_path = os.path.join(build, f"kernel-{key[:16]}.so")
        with open(c_path, "w") as fh:
            fh.write(source)
        proc = _run_compiler(cc, [*flags, "-o", so_path, c_path])
        if proc.returncode != 0:
            raise ExecBackendError(
                f"C compile of generated kernel failed ({cc}):\n{proc.stderr}"
            )
        lib = ctypes.CDLL(so_path)
        lib.kernel_lanes.restype = ctypes.c_int
        lib.kernel_lanes.argtypes = []
        entry = lib.kernel_batch
        entry.restype = None
        entry.argtypes = [ctypes.c_long] + [ctypes.c_long, ctypes.c_void_p] * n_params
        _compiled[key] = KernelLibrary(entry, lib.kernel_lanes())
        return _compiled[key]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _span_pool() -> ThreadPoolExecutor:
    """The process-wide threads that run every span but the first:
    one fewer than the usable CPUs, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max(1, _usable_cpus() - 1), thread_name_prefix="cnative-span"
            )
        return _pool


def _drop_pool() -> None:
    """Forget the pool in a forked child, which has none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _run_spans(
    lib: KernelLibrary,
    prog: PolyProgram,
    buffers: Mapping[str, np.ndarray],
    groups: int,
) -> None:
    """Run ``lib`` over the first ``groups`` lane groups of the
    :func:`~repro.exec.backend.batch_buffers` ``buffers``, one contiguous
    span of groups per usable CPU.

    The calling thread runs the first span and the span pool the others
    meanwhile, since ``ctypes`` releases the GIL during each call.  Each
    span hands ``kernel_batch`` its rows of the streamed buffers and
    temporaries of its own, uninitialised like the first span's; the
    static inputs are shared, and the kernel only reads them.
    """
    n = max(1, min(_usable_cpus(), groups))
    temps = {d.name for d in prog.function.temporaries()}
    bounds = [groups * i // n for i in range(n + 1)]
    spans: List[list] = []
    owned: List[np.ndarray] = []  # later spans' temporaries, kept alive
    for lo, hi in zip(bounds, bounds[1:]):
        args = [hi - lo]
        for name, buf in buffers.items():
            if buf.ndim == 2:  # one row per lane group
                row = buf.ctypes.data + lo * buf.strides[0]
                args += [prog.layouts[name].size, row]
                continue
            if lo and name in temps:
                buf = _aligned_array(buf.shape, 8 * lib.lanes, zeroed=False)
                owned.append(buf)
            args += [0, buf.ctypes.data]
        spans.append(args)
    pending = [_span_pool().submit(lib.batch, *args) for args in spans[1:]]
    try:
        lib.batch(*spans[0])
    finally:
        wait(pending)  # no span outlives the buffers it writes
    for future in pending:
        future.result()


def _kernel_library(prog: PolyProgram) -> KernelLibrary:
    """``prog``'s lane kernel, generated and compiled."""
    return compile_kernel_library(*lane_kernel_source(prog))


class CNativeBackend(ExecBackend):
    """Whole-batch execution of the compiled C kernel, one element per SIMD lane.

    A batch runs one span of its lane groups per usable CPU.
    """

    name = "cnative"

    def __init__(self) -> None:
        self._kernel = KernelMemo(_kernel_library)

    def available(self) -> bool:
        return find_compiler() is not None

    def unavailable_reason(self) -> Optional[str]:
        if self.available():
            return None
        return "no C compiler on PATH (tried $CFDLANG_CC, cc, gcc, clang)"

    def run_batch(
        self,
        fn: Function,
        elements: Mapping[str, Batch],
        static_inputs: Mapping[str, np.ndarray],
        element_inputs: Sequence[str],
        prog: Optional[PolyProgram] = None,
    ) -> Dict[str, Packed]:
        prog = resolved_program(fn, prog)
        lib = self._kernel(prog)
        ne, buffers = batch_buffers(
            prog, elements, static_inputs, element_inputs, lib.lanes
        )
        _run_spans(lib, prog, buffers, -(-ne // lib.lanes))
        return {
            d.name: Packed(buffers[d.name], prog.layouts[d.name], lib.lanes, ne)
            for d in prog.function.outputs()
        }
