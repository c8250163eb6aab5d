"""Pluggable kernel execution backends for the functional hot loop.

See :mod:`repro.exec.backend` for the protocol; ``loops`` / ``numpy`` /
``cnative`` register on import.
"""

from repro.exec.backend import (
    ExecBackend,
    FunctionalRecord,
    Packed,
    available_backend_names,
    backend_names,
    consistent_batch_size,
    get_backend,
    register_backend,
    require_backend,
)
from repro.exec.cnative import CNativeBackend
from repro.exec.loops import LoopsBackend
from repro.exec.numpy_backend import NumpyBackend
from repro.exec.programs import chain_element_inputs, run_chain_batch

register_backend(LoopsBackend())
register_backend(NumpyBackend())
register_backend(CNativeBackend())

__all__ = [
    "CNativeBackend",
    "ExecBackend",
    "FunctionalRecord",
    "LoopsBackend",
    "NumpyBackend",
    "Packed",
    "available_backend_names",
    "backend_names",
    "consistent_batch_size",
    "get_backend",
    "register_backend",
    "require_backend",
    "run_chain_batch",
    "chain_element_inputs",
]
