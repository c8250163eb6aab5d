"""Execution-backend protocol and registry.

An :class:`ExecBackend` executes a compiled kernel *functionally* over a
batch of CFD elements: given per-element input stacks ``(Ne, *shape)``
and shared static operands, it produces the stacked outputs
``(Ne, *shape)``.  All backends compute the same mathematical function;
they differ in fidelity and throughput:

``loops``
    The C kernel's AST printed as Python (:mod:`repro.codegen.pyemit`),
    called once per element on row views of the batch buffers.
    Bit-exact with the generated C code's loop structure — the
    reference the other backends are checked against.  Given the
    kernel's memory subsystem it overlays the members of each PLM unit
    on one buffer, as the generated memory architecture does.
``numpy``
    Vectorized: one batched ``np.einsum`` per contraction stage and one
    array op per entry-wise stage, executing all ``Ne`` elements in a
    handful of NumPy calls.  Sums reassociate relative to the sequential
    loops, so agreement is ``allclose`` (1e-12), not bit-exact.
``cnative``
    The C99 kernel from :mod:`repro.codegen.cemit` compiled with the
    system C compiler into a shared library that computes 2, 4 or 8
    elements per kernel call, one per SIMD lane; one ``ctypes`` call
    walks the whole batch in C.  Bit-exact with ``loops`` at every lane
    count; unavailable (and auto-skipped) when no compiler is installed.

Both generated-kernel backends pack a batch with :func:`batch_buffers`:
flat, layout-addressed buffers whose every cell holds one element per
lane (``loops`` runs at one lane), each starting on a vector boundary.
They return their streamed outputs still in that layout, as
:class:`Packed` values: handed to the next kernel of a chain or the next
solver step on the same backend, a :class:`Packed` input whose lane
count and layout geometry match is adopted as the kernel's buffer
without a copy, and ``np.asarray`` unpacks one into its ``(Ne, *shape)``
stack wherever host arrays are needed.

Backends register here by name; :func:`get_backend` resolves them for
the ``simulate`` flow stage and the ``--exec-backend`` CLI flag, and
``require_backend(name).run_batch(...)`` runs a batch directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.codegen.pyemit import pack_array, unpack_array
from repro.errors import (
    ExecBackendError,
    IRError,
    LayoutError,
    MemoryArchitectureError,
    SimulationError,
)
from repro.layout.layout import Layout
from repro.mnemosyne.plm import MemorySubsystem
from repro.poly.schedule import PolyProgram
from repro.teil.program import Function
from repro.teil.types import TensorKind


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


@dataclass(frozen=True, eq=False)
class Packed:
    """A streamed tensor left in a generated-kernel backend's lane layout.

    ``buffer`` is a ``(ceil(count / lanes), layout.size * lanes)`` stack
    from :func:`batch_buffers`: element ``e`` sits in lane ``e % lanes``
    of row ``e // lanes``, and the unused lanes of the last row hold
    whatever the kernel computed there.  It behaves as the ``(count,
    *layout.shape)`` stack it holds where only the count and shape are
    read (``len``, ``.shape``); ``np.asarray`` unpacks it, one
    de-interleaving copy.  The buffer is shared, not copied: neither the
    backends nor their callers write it.
    """

    buffer: np.ndarray
    layout: Layout
    lanes: int
    count: int

    def __post_init__(self) -> None:
        # an adopted buffer goes to the C kernel as a bare pointer
        rows = (-(-self.count // self.lanes), self.layout.size * self.lanes)
        buf = self.buffer
        if (buf.shape != rows or buf.dtype != np.float64
                or not buf.flags.c_contiguous):
            raise LayoutError(
                f"packed {self.layout.tensor!r} needs a C-contiguous float64 "
                f"buffer of shape {rows}, got {buf.dtype} {buf.shape}"
            )

    def __len__(self) -> int:
        return self.count

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.count,) + self.layout.shape

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = unpack_array(self.buffer, self.layout, self.lanes, self.count)
        return out if dtype is None else out.astype(dtype, copy=False)


Batch = Union[np.ndarray, Packed]


def streamed_array(arr) -> Batch:
    """A streamed input as a float64 ``(Ne, *shape)`` array; a
    :class:`Packed` one stays packed."""
    return arr if isinstance(arr, Packed) else np.asarray(arr, dtype=np.float64)


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
        elements: Mapping[str, Batch],
        static_inputs: Mapping[str, np.ndarray],
        element_inputs: Sequence[str],
        prog: Optional[PolyProgram] = None,
    ) -> Dict[str, Batch]:
        """Execute ``fn`` over a batch; returns stacked outputs.

        ``elements[name]`` has shape ``(Ne, *tensor_shape)`` for every
        name in ``element_inputs`` (an array or a :class:`Packed`
        stack); the remaining inputs come from ``static_inputs`` and are
        shared across elements.  ``prog`` supplies the scheduled/laid-out
        program for backends that execute generated kernels; when
        omitted they fall back to the reference schedule with default
        layouts.  Outputs are ``(Ne, *tensor_shape)`` stacks, as
        :class:`Packed` values on the generated-kernel backends.
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
    elements: Mapping[str, Batch], element_inputs: Sequence[str]
) -> int:
    """The common ``Ne`` of the streamed inputs.

    Raises :class:`SimulationError` naming exactly which streamed inputs
    disagree (``name=Ne`` pairs) instead of a bare count set.
    """
    if not element_inputs:
        raise SimulationError("no streamed element inputs given")
    try:
        counts = {n: int(np.shape(elements[n])[0]) for n in element_inputs}
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
    elements: Mapping[str, Batch],
    static_inputs: Mapping[str, np.ndarray],
    element_inputs: Sequence[str],
) -> Dict[str, Batch]:
    """Validate and normalize the batch inputs to float64 arrays.

    Streamed entries keep their leading element axis (and a
    :class:`Packed` one stays packed); static entries match the declared
    tensor shape exactly.  Raises :class:`IRError` on missing or
    mis-shaped inputs (mirroring the interpreter).
    """
    streamed = set(element_inputs)
    out: Dict[str, Batch] = {}
    for d in fn.inputs():
        if d.name in streamed:
            arr = streamed_array(elements[d.name])
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


def _geometry(layout: Layout) -> tuple:
    """What places a tensor in a buffer row.  ``Layout`` equality also
    compares the tensor's name, and a carried ``w`` is adopted as ``u``."""
    return layout.shape, layout.strides, layout.offset, layout.size


def _aligned_array(
    shape: Tuple[int, ...], align: int, zeroed: bool = True
) -> np.ndarray:
    """A float64 array, zeros or uninitialised, whose data starts on an
    ``align``-byte boundary: one vector over-allocated and sliced off
    (``.base`` keeps the allocation alive)."""
    n = int(np.prod(shape))
    raw = (np.zeros if zeroed else np.empty)(n + align // 8)
    start = (-raw.ctypes.data % align) // 8
    return raw[start:start + n].reshape(shape)


def batch_buffers(
    prog: PolyProgram,
    elements: Mapping[str, Batch],
    static_inputs: Mapping[str, np.ndarray],
    element_inputs: Sequence[str],
    lanes: int = 1,
    memory: Optional[MemorySubsystem] = None,
) -> Tuple[int, Dict[str, np.ndarray]]:
    """Validate a batch and pack it for ``prog``'s generated kernel.

    Returns ``Ne`` and one flat, layout-addressed buffer per kernel
    parameter in parameter order (interface, then temporaries), each
    input packed by one :func:`pack_array` call.  Every cell holds
    ``lanes`` consecutive elements, one per lane, and one kernel call
    computes a whole row of ``size * lanes`` cells.  Streamed inputs and
    outputs get one row per lane group, ``(ceil(Ne / lanes), size *
    lanes)``, the unused lanes of an input's last row packed as zeros;
    static inputs get their tensor copied into every lane of one shared
    ``(size * lanes,)`` buffer, and temporaries one shared buffer of that
    size.  Output and temporary buffers start uninitialised: the kernel
    writes every cell before it reads it.  With ``lanes=1`` a row is one
    element.  Every buffer starts on an ``8 * lanes``-byte boundary, so
    no lane vector straddles two cache lines.

    A :class:`Packed` streamed input at ``lanes`` lanes whose layout
    geometry matches the parameter's is the parameter's buffer as it
    is, with no copy: a kernel never writes its inputs (TeIL rejects an
    assignment to one).  Any other :class:`Packed` input is unpacked
    and packed again.

    Given the kernel's ``memory`` subsystem, the members of each PLM
    unit share one buffer of the unit's ``words`` at offset 0, as
    Mnemosyne overlays them: one row per lane group when a member is
    streamed in or out, else one buffer for the whole batch.  A
    :class:`Packed` input is never adopted into a unit.  Raises
    :class:`MemoryArchitectureError` when a layout is larger than its
    unit, and when a unit overlays a static input on another array:
    the operand is loaded once for every element, which a per-element
    row would hide.
    """
    fn = prog.function
    ne = consistent_batch_size(elements, element_inputs)
    inputs = checked_batch_inputs(fn, elements, static_inputs, element_inputs)
    per_element = set(element_inputs) | {d.name for d in fn.outputs()}
    groups = -(-ne // lanes)
    overlay = (
        {} if memory is None
        else _unit_buffers(prog, memory, per_element, groups, lanes)
    )
    buffers: Dict[str, np.ndarray] = {}
    for d in fn.interface() + fn.temporaries():
        layout = prog.layouts[d.name]
        arr = inputs.get(d.name)
        if d.name in overlay:
            buffers[d.name] = overlay[d.name]
        elif isinstance(arr, Packed) and arr.lanes == lanes and (
            _geometry(arr.layout) == _geometry(layout)
        ):
            buffers[d.name] = arr.buffer
            continue
        else:
            cells = layout.size * lanes
            buffers[d.name] = _aligned_array(
                (groups, cells) if d.name in per_element else (cells,),
                8 * lanes,
                zeroed=arr is not None,
            )
        if arr is not None:
            pack_array(buffers[d.name], layout, np.asarray(arr), lanes)
    return ne, buffers


def _unit_buffers(
    prog: PolyProgram,
    memory: MemorySubsystem,
    per_element: Set[str],
    groups: int,
    lanes: int,
) -> Dict[str, np.ndarray]:
    """The one buffer of each PLM unit of ``memory`` that holds two or
    more arrays, by member name; checks every unit (see
    :func:`batch_buffers`)."""
    out: Dict[str, np.ndarray] = {}
    for unit in memory.units:
        for name in unit.members:
            size = prog.layouts[name].size
            if size > unit.words:
                raise MemoryArchitectureError(
                    f"array {name!r} ({size} words) exceeds its PLM unit "
                    f"{unit.name!r} ({unit.words} words)"
                )
        if len(unit.members) < 2:
            continue
        for name in unit.members:
            decl = prog.function.decls[name]
            if decl.kind is TensorKind.INPUT and name not in per_element:
                raise MemoryArchitectureError(
                    f"PLM unit {unit.name!r} overlays static input {name!r} "
                    f"on {', '.join(m for m in unit.members if m != name)}: "
                    f"a static operand is loaded once for every element"
                )
        cells = unit.words * lanes
        rows = not per_element.isdisjoint(unit.members)
        buf = _aligned_array((groups, cells) if rows else (cells,), 8 * lanes)
        out.update(dict.fromkeys(unit.members, buf))
    return out
