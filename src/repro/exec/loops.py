"""The ``loops`` execution backend: generated Python, one element at a time.

Runs the Python mirror of the generated C kernel (:mod:`repro.codegen.
pyemit`) over flat, layout-addressed buffers — the same loop structure,
statement order, and accumulation order the C code executes, which makes
this the bit-exact reference the vectorized backends are checked
against.  The kernel is compiled and every tensor packed once per batch
by the buffer helpers ``cnative`` uses (:func:`~repro.exec.backend.
batch_buffers`), at one lane: each row of a streamed buffer is one
element's flat buffer.  The kernel then runs on each element's row
views, so only the arithmetic remains a Python loop nest.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.codegen.pyemit import (
    compile_python_kernel,
    generate_python_kernel,
    unpack_array,
)
from repro.exec.backend import ExecBackend, batch_buffers, resolved_program
from repro.poly.schedule import PolyProgram
from repro.teil.program import Function


class LoopsBackend(ExecBackend):
    """Per-element generated-Python execution (the reference)."""

    name = "loops"

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
        kernel = compile_python_kernel(generate_python_kernel(prog))
        for e in range(ne):
            kernel(*[b[e] if b.ndim == 2 else b for b in buffers.values()])
        return {
            d.name: unpack_array(buffers[d.name], prog.layouts[d.name])
            for d in prog.function.outputs()
        }
