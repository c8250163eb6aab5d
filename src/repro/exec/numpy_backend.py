"""The ``numpy`` execution backend: whole-batch vectorized stages.

Executes the kernel's stages (one per :class:`~repro.codegen.kernel.
StagePlan` / IR statement) with NumPy over the entire element batch at
once: each contraction becomes a single batched ``np.einsum`` whose
streamed operands carry a leading element axis (ellipsis broadcasting
handles static operands), and each entry-wise stage becomes one
broadcasted array op.  ``Ne`` elements therefore execute in
``#stages`` NumPy calls instead of ``Ne × #stages`` Python loop nests.

Values are layout-independent (layouts place tensors in memory, they do
not change the computed function), so this backend works on the tensor
IR directly; the stage structure matches the generated kernel's plans
one-to-one.  It keeps host arrays: a :class:`~repro.exec.backend.Packed`
input from a generated-kernel backend is unpacked with ``np.asarray``.
Summation order inside an einsum differs from the sequential reference
loops, so results match the ``loops`` backend to ``allclose`` tolerance
(1e-12), not bit-exactly.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Set

import numpy as np

from repro.errors import IRError
from repro.exec.backend import (
    Batch,
    ExecBackend,
    checked_batch_inputs,
    consistent_batch_size,
)
from repro.poly.schedule import PolyProgram
from repro.teil.interp import einsum_spec
from repro.teil.ops import Contraction, Ewise, EwiseKind
from repro.teil.program import Function

_EWISE_NP = {
    EwiseKind.MUL: np.multiply,
    EwiseKind.DIV: np.divide,
    EwiseKind.ADD: np.add,
    EwiseKind.SUB: np.subtract,
}


class NumpyBackend(ExecBackend):
    """Batched einsum/array-op execution of all elements at once."""

    name = "numpy"

    def run_batch(
        self,
        fn: Function,
        elements: Mapping[str, Batch],
        static_inputs: Mapping[str, np.ndarray],
        element_inputs: Sequence[str],
        prog: Optional[PolyProgram] = None,
    ) -> Dict[str, np.ndarray]:
        if prog is not None:
            fn = prog.function
        ne = consistent_batch_size(elements, element_inputs)
        env = {
            name: np.asarray(arr)
            for name, arr in checked_batch_inputs(
                fn, elements, static_inputs, element_inputs
            ).items()
        }
        batched: Set[str] = {
            d.name for d in fn.inputs() if d.name in set(element_inputs)
        }
        for s in fn.statements:
            op = s.op
            if isinstance(op, Contraction):
                operands = [env[o] for o in op.operands]
                # two-operand contractions (the factorized form) keep the
                # default deterministic einsum kernel; longer chains get a
                # contraction path so un-factorized programs stay feasible
                env[s.target] = np.einsum(
                    einsum_spec(op, batched=True),
                    *operands,
                    optimize=len(operands) > 2,
                )
            elif isinstance(op, Ewise):
                env[s.target] = _EWISE_NP[op.kind](env[op.lhs], env[op.rhs])
            else:  # pragma: no cover - new op kinds fail loudly
                raise IRError(f"unknown op {type(op).__name__}")
            if any(o in batched for o in op.operands):
                batched.add(s.target)
        out: Dict[str, np.ndarray] = {}
        for d in fn.outputs():
            v = env[d.name]
            if d.name not in batched:
                # a purely static dataflow: replicate across the batch so
                # every backend returns (Ne, *shape) stacks
                v = np.broadcast_to(v, (ne,) + d.shape).copy()
            out[d.name] = v
        return out
