"""Execution-backend protocol and registry.

An :class:`ExecBackend` executes a compiled kernel *functionally* over a
batch of CFD elements: given per-element input stacks ``(Ne, *shape)``
and shared static operands, it produces the stacked outputs
``(Ne, *shape)``.  All backends compute the same mathematical function;
they differ in fidelity and throughput:

``loops``
    The generated-Python mirror of the C kernel (:mod:`repro.codegen.
    pyemit`), called once per element on row views of the batch
    buffers.  Bit-exact with the generated C code's loop structure — the
    reference the other backends are checked against.
``numpy``
    Vectorized: one batched ``np.einsum`` per contraction stage and one
    array op per entry-wise stage, executing all ``Ne`` elements in a
    handful of NumPy calls.  Sums reassociate relative to the sequential
    loops, so agreement is ``allclose`` (1e-12), not bit-exact.
``cnative``
    The C99 kernel from :mod:`repro.codegen.cemit` compiled with the
    system C compiler into a shared library that computes 2 or 4
    elements per kernel call, one per SIMD lane; one ``ctypes`` call
    walks the whole batch in C.  Bit-exact with ``loops`` at every lane
    count; unavailable (and auto-skipped) when no compiler is installed.

Both generated-kernel backends pack a batch with :func:`batch_buffers`:
flat, layout-addressed buffers whose every cell holds one element per
lane (``loops`` runs at one lane).

Backends register here by name; :func:`get_backend` resolves them for
the ``simulate`` flow stage and the ``--exec-backend`` CLI flag, and
``require_backend(name).run_batch(...)`` runs a batch directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.pyemit import pack_array
from repro.errors import ExecBackendError, IRError, SimulationError
from repro.poly.schedule import PolyProgram
from repro.teil.program import Function


@dataclass(frozen=True)
class FunctionalRecord:
    """Throughput record of one functional batch execution.

    Produced by the ``simulate`` stage when an execution backend is
    selected (:attr:`~repro.flow.options.SystemOptions.exec_backend`)
    and surfaced through :class:`~repro.flow.pipeline.FlowResult.
    functional` and the flow trace metrics.  ``max_error`` is the
    largest absolute difference between the batch's checked elements
    and ``teil.interp``.  ``replayed`` marks a record served from a
    cache tier: its timing is the run that computed it.
    """

    backend: str
    n_elements: int
    seconds: float
    replayed: bool = False
    max_error: float = 0.0

    @property
    def elements_per_sec(self) -> float:
        return self.n_elements / max(self.seconds, 1e-12)

    def __str__(self) -> str:
        return (
            f"functional[{self.backend}]: {self.n_elements} elements in "
            f"{self.seconds * 1e3:.2f} ms "
            f"({self.elements_per_sec:,.0f} elements/sec)"
            + (", replayed from cache" if self.replayed else "")
        )


class ExecBackend:
    """Base class for kernel execution backends.

    Subclasses set :attr:`name` and implement :meth:`run_batch`;
    backends with host requirements (a C toolchain) override
    :meth:`available`/:meth:`unavailable_reason`.
    """

    name: str = ""

    def available(self) -> bool:
        return True

    def unavailable_reason(self) -> Optional[str]:
        """Why :meth:`available` is False (None when available)."""
        return None

    def run_batch(
        self,
        fn: Function,
        elements: Mapping[str, np.ndarray],
        static_inputs: Mapping[str, np.ndarray],
        element_inputs: Sequence[str],
        prog: Optional[PolyProgram] = None,
    ) -> Dict[str, np.ndarray]:
        """Execute ``fn`` over a batch; returns stacked outputs.

        ``elements[name]`` has shape ``(Ne, *tensor_shape)`` for every
        name in ``element_inputs``; the remaining inputs come from
        ``static_inputs`` and are shared across elements.  ``prog``
        supplies the scheduled/laid-out program for backends that
        execute generated kernels; when omitted they fall back to the
        reference schedule with default layouts.
        """
        raise NotImplementedError


_REGISTRY: Dict[str, ExecBackend] = {}


def register_backend(backend: ExecBackend) -> ExecBackend:
    if not backend.name:
        raise ExecBackendError("execution backend needs a name")
    if backend.name in _REGISTRY:
        raise ExecBackendError(f"duplicate execution backend {backend.name!r}")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> List[str]:
    """All registered backend names, in registration order."""
    return list(_REGISTRY)


def available_backend_names() -> List[str]:
    """Backends usable on this host (``cnative`` needs a C compiler)."""
    return [name for name, b in _REGISTRY.items() if b.available()]


def get_backend(name: str) -> ExecBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExecBackendError(
            f"unknown execution backend {name!r}; "
            f"backends are: {', '.join(_REGISTRY)}"
        ) from None


def require_backend(name: str) -> ExecBackend:
    """Resolve a backend and insist it is usable on this host."""
    backend = get_backend(name)
    if not backend.available():
        raise ExecBackendError(
            f"execution backend {name!r} is not available: "
            f"{backend.unavailable_reason() or 'unknown reason'}"
        )
    return backend


# ---------------------------------------------------------------------------
# shared input handling
# ---------------------------------------------------------------------------

def consistent_batch_size(
    elements: Mapping[str, np.ndarray], element_inputs: Sequence[str]
) -> int:
    """The common ``Ne`` of the streamed inputs.

    Raises :class:`SimulationError` naming exactly which streamed inputs
    disagree (``name=Ne`` pairs) instead of a bare count set.
    """
    if not element_inputs:
        raise SimulationError("no streamed element inputs given")
    try:
        counts = {n: int(np.asarray(elements[n]).shape[0]) for n in element_inputs}
    except KeyError as exc:
        raise SimulationError(f"missing streamed input {exc.args[0]!r}") from None
    except IndexError:
        raise SimulationError(
            "streamed inputs must have a leading element axis (Ne, *shape)"
        ) from None
    if len(set(counts.values())) != 1:
        pairs = ", ".join(f"{n}={c}" for n, c in sorted(counts.items()))
        raise SimulationError(
            f"inconsistent element counts across streamed inputs: {pairs}"
        )
    return next(iter(counts.values()))


def checked_batch_inputs(
    fn: Function,
    elements: Mapping[str, np.ndarray],
    static_inputs: Mapping[str, np.ndarray],
    element_inputs: Sequence[str],
) -> Dict[str, np.ndarray]:
    """Validate and normalize the batch inputs to float64 arrays.

    Streamed entries keep their leading element axis; static entries
    match the declared tensor shape exactly.  Raises :class:`IRError`
    on missing or mis-shaped inputs (mirroring the interpreter).
    """
    streamed = set(element_inputs)
    out: Dict[str, np.ndarray] = {}
    for d in fn.inputs():
        if d.name in streamed:
            arr = np.asarray(elements[d.name], dtype=np.float64)
            if arr.shape[1:] != d.shape:
                raise IRError(
                    f"streamed input {d.name!r} has per-element shape "
                    f"{arr.shape[1:]}, expected {d.shape}"
                )
        else:
            if d.name not in static_inputs:
                raise IRError(f"missing input tensor {d.name!r}")
            arr = np.asarray(static_inputs[d.name], dtype=np.float64)
            if arr.shape != d.shape:
                raise IRError(
                    f"input {d.name!r} has shape {arr.shape}, "
                    f"expected {d.shape}"
                )
        out[d.name] = arr
    return out


def resolved_program(fn: Function, prog: Optional[PolyProgram]) -> PolyProgram:
    """The program a generated-kernel backend executes.

    Callers inside the flow pass the rescheduled, laid-out ``poly``
    artifact; standalone callers get the reference schedule with default
    row-major layouts.
    """
    if prog is not None:
        return prog
    from repro.poly.schedule import reference_schedule

    return reference_schedule(fn)


def batch_buffers(
    prog: PolyProgram,
    elements: Mapping[str, np.ndarray],
    static_inputs: Mapping[str, np.ndarray],
    element_inputs: Sequence[str],
    lanes: int = 1,
) -> Tuple[int, Dict[str, np.ndarray]]:
    """Validate a batch and pack it for ``prog``'s generated kernel.

    Returns ``Ne`` and one flat, layout-addressed buffer per kernel
    parameter in parameter order (interface, then temporaries), each
    input packed by one :func:`pack_array` call.  Every cell holds
    ``lanes`` consecutive elements, one per lane, and one kernel call
    computes a whole row of ``size * lanes`` cells.  Streamed inputs and
    outputs get one row per lane group, ``(ceil(Ne / lanes), size *
    lanes)``, the unused lanes of the last one zero; static inputs get
    their tensor copied into every lane of one shared ``(size * lanes,)``
    buffer, and temporaries one shared zero buffer of that size.  With
    ``lanes=1`` a row is one element.
    """
    fn = prog.function
    ne = consistent_batch_size(elements, element_inputs)
    inputs = checked_batch_inputs(fn, elements, static_inputs, element_inputs)
    per_element = set(element_inputs) | {d.name for d in fn.outputs()}
    groups = -(-ne // lanes)
    buffers: Dict[str, np.ndarray] = {}
    for d in fn.interface() + fn.temporaries():
        cells = prog.layouts[d.name].size * lanes
        buffers[d.name] = np.zeros(
            (groups, cells) if d.name in per_element else cells
        )
        if d.name in inputs:
            pack_array(
                buffers[d.name], prog.layouts[d.name], inputs[d.name], lanes
            )
    return ne, buffers
