"""The ``cnative`` execution backend: the generated C99 kernel, compiled.

Takes the exact kernel source the flow emits for HLS
(:func:`repro.codegen.kernel.generate_kernel`), appends a
``kernel_batch`` entry point and compiles both with the system C
compiler into a shared library.  One ``ctypes`` call streams a whole
batch through it, as the paper's host streams its elements through an
accelerator: streamed inputs and outputs advance by one layout ``size``
per element, static inputs and exported temporaries stay put.
``-ffp-contract=off`` keeps the compiler from fusing multiply-adds, so
the results are bit-identical to the ``loops`` reference; ``#pragma
HLS`` lines are unknown pragmas to a host compiler and are ignored.
Libraries are cached by source hash for the process lifetime and
removed at exit, and each program object's kernel is generated once.

The backend reports itself unavailable (and callers auto-skip it) when
no C compiler is on ``PATH``; set ``CFDLANG_CC`` to pick a specific one.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.codegen.kernel import generate_kernel
from repro.codegen.pyemit import unpack_array
from repro.errors import ExecBackendError
from repro.exec.backend import ExecBackend, batch_buffers, resolved_program
from repro.poly.schedule import PolyProgram
from repro.teil.program import Function

_CC_CANDIDATES = ("cc", "gcc", "clang")
_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c99", "-ffp-contract=off"]

_build_dir: Optional[str] = None
_compiled: Dict[str, Callable] = {}
_compile_lock = threading.Lock()  # one writer per kernel file


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


def compile_kernel_library(source: str, n_params: int) -> Callable:
    """Compile a ``kernel_body`` source with an appended
    ``kernel_batch(ne, s0, p0, s1, p1, ...)`` entry point, which calls
    ``kernel_body`` once per element with each ``p_i`` advanced by
    ``s_i`` doubles; returns ``kernel_batch`` as a ctypes function.

    Cached by source hash; raises :class:`ExecBackendError` when no
    compiler is found or the compile fails.
    """
    params = ", ".join(f"long s{i}, double *p{i}" for i in range(n_params))
    args = ", ".join(f"p{i} + e * s{i}" for i in range(n_params))
    source += (
        f"\nvoid kernel_batch(long ne, {params}) {{\n"
        f"  for (long e = 0; e < ne; ++e)\n    kernel_body({args});\n}}\n"
    )
    key = hashlib.sha256(source.encode()).hexdigest()
    with _compile_lock:
        if key in _compiled:
            return _compiled[key]
        cc = find_compiler()
        if cc is None:
            raise ExecBackendError(
                "no C compiler found (tried $CFDLANG_CC, cc, gcc, clang)"
            )
        build = _ensure_build_dir()
        c_path = os.path.join(build, f"kernel-{key[:16]}.c")
        so_path = os.path.join(build, f"kernel-{key[:16]}.so")
        with open(c_path, "w") as fh:
            fh.write(source)
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", so_path, c_path],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise ExecBackendError(
                f"C compile of generated kernel failed ({cc}):\n{proc.stderr}"
            )
        entry = ctypes.CDLL(so_path).kernel_batch
        entry.restype = None
        entry.argtypes = [ctypes.c_long] + [ctypes.c_long, ctypes.c_void_p] * n_params
        _compiled[key] = entry
        return entry


class CNativeBackend(ExecBackend):
    """Whole-batch execution of the compiled generated C kernel."""

    name = "cnative"
    #: programs whose compiled kernel stays memoized (least recently used go)
    MEMO_SIZE = 64

    def __init__(self) -> None:
        # id(prog) -> (weakref to prog, entry point); the weakref tells a
        # live program from a dead one whose id was reused
        self._kernels: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def available(self) -> bool:
        return find_compiler() is not None

    def unavailable_reason(self) -> Optional[str]:
        if self.available():
            return None
        return "no C compiler on PATH (tried $CFDLANG_CC, cc, gcc, clang)"

    def _kernel(self, prog: PolyProgram) -> Callable:
        """The batch entry point of ``prog``, generated and compiled on
        the first call per program object."""
        with self._lock:
            hit = self._kernels.get(id(prog))
            if hit is not None and hit[0]() is prog:
                self._kernels.move_to_end(id(prog))
                return hit[1]
        code = generate_kernel(prog)
        entry = compile_kernel_library(code.source, len(code.interface_params))
        with self._lock:
            self._kernels[id(prog)] = (weakref.ref(prog), entry)
            self._kernels.move_to_end(id(prog))
            while len(self._kernels) > self.MEMO_SIZE:
                self._kernels.popitem(last=False)
        return entry

    def run_batch(
        self,
        fn: Function,
        elements: Mapping[str, np.ndarray],
        static_inputs: Mapping[str, np.ndarray],
        element_inputs: Sequence[str],
        prog: Optional[PolyProgram] = None,
    ) -> Dict[str, np.ndarray]:
        prog = resolved_program(fn, prog)
        ne, buffers = batch_buffers(prog, elements, static_inputs, element_inputs)
        args: List[int] = []
        for buf in buffers.values():  # ``buffers`` keeps them alive
            args += [buf.shape[1] if buf.ndim == 2 else 0, buf.ctypes.data]
        self._kernel(prog)(ne, *args)
        return {
            d.name: unpack_array(buffers[d.name], prog.layouts[d.name])
            for d in prog.function.outputs()
        }
