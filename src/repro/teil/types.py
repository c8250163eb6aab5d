"""Tensor declarations for the IR."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.utils import prod

DTYPE_BYTES = 8  # CFDlang tensors are double precision (64-bit)


class TensorKind(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    LOCAL = "local"       # named temporary declared in the source (e.g. t, r)
    TRANSIENT = "transient"  # compiler-introduced (e.g. t0..t3)


@dataclass(frozen=True)
class TensorDecl:
    name: str
    shape: Tuple[int, ...]
    kind: TensorKind

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def n_elements(self) -> int:
        return prod(self.shape)

    @property
    def n_bytes(self) -> int:
        return self.n_elements * DTYPE_BYTES

    def __str__(self) -> str:
        return f"{self.name}: {self.kind.value}[{'x'.join(map(str, self.shape))}]"
