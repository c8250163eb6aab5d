"""The ``loops`` execution backend: generated Python, one element at a time.

Runs the C kernel the flow emits for HLS (:func:`repro.codegen.kernel.
generate_kernel`), printed as Python by :mod:`repro.codegen.pyemit`,
over flat, layout-addressed buffers — the same loop structure,
statement order, and accumulation order the C code executes, which makes
this the bit-exact reference the vectorized backends are checked
against.  Each program object's kernel is generated and compiled once
(a :class:`~repro.exec.backend.KernelMemo`, as on ``cnative``), and
every tensor is packed once per batch by the buffer helpers ``cnative``
uses (:func:`~repro.exec.backend.batch_buffers`), at one lane: each row
of a streamed buffer is one element's flat buffer.  The kernel then
runs on each element's row views, so only the arithmetic remains a
Python loop nest.  Outputs stay in those buffers, as
:class:`~repro.exec.backend.Packed` one-lane stacks.

Given the kernel's :class:`~repro.mnemosyne.plm.MemorySubsystem`, the
run overlays the members of each PLM unit on one buffer, as the
generated memory architecture does, so an illegal overlay corrupts the
outputs; those come back as host arrays.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.kernel import generate_kernel
from repro.codegen.pyemit import (
    compile_python_kernel,
    generate_python_kernel,
    unpack_array,
)
from repro.exec.backend import (
    Batch,
    ExecBackend,
    KernelMemo,
    Packed,
    batch_buffers,
    resolved_program,
)
from repro.mnemosyne.plm import MemorySubsystem
from repro.poly.schedule import PolyProgram
from repro.teil.program import Function


def _python_kernel(prog: PolyProgram) -> Tuple[Callable, List[str]]:
    """``prog``'s kernel compiled as Python, and its parameter names in
    order."""
    code = generate_kernel(prog).function
    kernel = compile_python_kernel(generate_python_kernel(code), code.name)
    return kernel, [p.name for p in code.params]


class LoopsBackend(ExecBackend):
    """Per-element generated-Python execution (the reference)."""

    name = "loops"

    def __init__(self) -> None:
        self._kernel = KernelMemo(_python_kernel)

    def run_batch(
        self,
        fn: Function,
        elements: Mapping[str, Batch],
        static_inputs: Mapping[str, np.ndarray],
        element_inputs: Sequence[str],
        prog: Optional[PolyProgram] = None,
        memory: Optional[MemorySubsystem] = None,
    ) -> Dict[str, Batch]:
        prog = resolved_program(fn, prog)
        ne, buffers = batch_buffers(
            prog, elements, static_inputs, element_inputs, memory=memory
        )
        kernel, names = self._kernel(prog)
        params = [buffers[name] for name in names]
        for e in range(ne):
            kernel(*[b[e] if b.ndim == 2 else b for b in params])
        outputs = prog.function.outputs()
        if memory is not None:  # a unit's buffer is wider than its output
            return {
                d.name: unpack_array(buffers[d.name], prog.layouts[d.name], count=ne)
                for d in outputs
            }
        return {
            d.name: Packed(buffers[d.name], prog.layouts[d.name], 1, ne)
            for d in outputs
        }
