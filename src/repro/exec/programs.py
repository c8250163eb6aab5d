"""Functional execution of multi-kernel chains over element batches.

:func:`run_chain_batch` drives an ordered sequence of compiled kernels
— ``(Function, PolyProgram)`` pairs, e.g. :meth:`repro.flow.program.
ProgramResult.chain` — through one execution backend, threading tensors
between kernels: an output of kernel *i* that a later kernel declares as
input is consumed from the batch, not re-supplied by the caller.  This
is the numeric inner loop of a :class:`~repro.flow.solver.SolverLoop`
time step.

Tensors live in two environments, mirroring the system model's
static/streamed operand split: *streamed* tensors carry a leading
element axis ``(Ne, *shape)`` and flow through ``backend.run_batch``;
*static* tensors (operator matrices and the like) are shared across
elements.  A kernel with at least one streamed input runs batched on
the backend; a kernel reading only static tensors runs once through the
interpreter and its outputs join the static environment.

On the generated-kernel backends a streamed intermediate stays in the
backend's lane layout between kernels, as the paper's PLMs keep an
element's data on chip between stages: kernel *i* returns it as a
:class:`~repro.exec.backend.Packed` buffer, and kernel *i + 1* adopts
that buffer as its input, with no unpack and no re-pack, when its
layout matches.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.exec.backend import Batch, ExecBackend, require_backend, streamed_array
from repro.poly.schedule import PolyProgram
from repro.teil.interp import interpret
from repro.teil.program import Function

ChainStage = Union[Function, Tuple[Function, Optional[PolyProgram]]]


def run_chain_batch(
    stages: Iterable[ChainStage],
    elements: Mapping[str, Batch],
    static_inputs: Optional[Mapping[str, np.ndarray]] = None,
    backend: Union[str, ExecBackend] = "numpy",
) -> Dict[str, Batch]:
    """Execute a kernel chain over a batch; returns every kernel output.

    ``stages`` are functions or ``(function, poly)`` pairs in execution
    order.  ``elements`` maps streamed tensors to ``(Ne, *shape)``
    stacks (arrays, or :class:`~repro.exec.backend.Packed` outputs of an
    earlier chain on the same backend); ``static_inputs`` maps shared
    tensors to plain arrays.  An input neither supplied nor produced by
    an earlier kernel is an error naming the kernel and tensor; so are
    two kernels producing the same tensor, and a streamed output
    colliding with a static input — both would otherwise silently shadow
    data.  Streamed outputs come back as ``(Ne, *shape)`` stacks —
    :class:`~repro.exec.backend.Packed` on ``cnative`` and ``loops``,
    which ``np.asarray`` unpacks — and static ones as plain arrays.

    A fused group (see :class:`repro.flow.program.FusionPlan`) arrives
    here as a single chain stage, so the whole group is one
    ``backend.run_batch`` call: one batched-einsum graph on ``numpy``,
    one emitted C function on ``cnative`` — its internal intermediates
    never materialize as per-kernel host arrays.
    """
    if isinstance(backend, str):
        backend = require_backend(backend)
    streamed: Dict[str, Batch] = {
        name: streamed_array(arr) for name, arr in elements.items()
    }
    static: Dict[str, np.ndarray] = {
        name: np.asarray(arr, dtype=np.float64)
        for name, arr in (static_inputs or {}).items()
    }
    caller_static = set(static)
    origin: Dict[str, str] = {}  # tensor name -> kernel that produced it
    produced: Dict[str, Batch] = {}
    for item in stages:
        fn, prog = item if isinstance(item, tuple) else (item, None)
        element_inputs = [d.name for d in fn.inputs() if d.name in streamed]
        statics: Dict[str, np.ndarray] = {}
        for d in fn.inputs():
            if d.name in element_inputs:
                continue
            if d.name not in static:
                raise SimulationError(
                    f"kernel {fn.name!r} input {d.name!r} is neither a "
                    "streamed element input, a static input, nor an "
                    "output of an earlier kernel in the chain"
                )
            statics[d.name] = static[d.name]
        for d in fn.outputs():
            if d.name in origin:
                raise SimulationError(
                    f"chain kernels {origin[d.name]!r} and {fn.name!r} "
                    f"both produce tensor {d.name!r}; the second would "
                    "silently shadow the first"
                )
            if element_inputs and d.name in caller_static:
                raise SimulationError(
                    f"kernel {fn.name!r} streams output {d.name!r} over "
                    "a static input of the same name; rename one — later "
                    "kernels could not tell the per-element stack from "
                    "the shared operand"
                )
            origin[d.name] = fn.name
        if element_inputs:
            outs = backend.run_batch(
                fn, streamed, statics, element_inputs, prog=prog
            )
            streamed.update(outs)
        else:
            # no per-element data touches this kernel: run it once and
            # share the result, exactly like a static operand
            outs = interpret(fn, statics)
            static.update(outs)
        produced.update(outs)
    return produced


def chain_element_inputs(
    stages: Iterable[ChainStage], elements: Sequence[str]
) -> Dict[str, Sequence[str]]:
    """Which inputs of each chained kernel are streamed (name -> list),
    given the caller-streamed tensor names — useful for sizing transfer
    footprints of a whole program without executing it."""
    streamed = set(elements)
    out: Dict[str, Sequence[str]] = {}
    for item in stages:
        fn = item[0] if isinstance(item, tuple) else item
        mine = [d.name for d in fn.inputs() if d.name in streamed]
        out[fn.name] = mine
        if mine:
            streamed.update(d.name for d in fn.outputs())
    return out
