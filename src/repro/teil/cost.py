"""Cost model over the tensor IR: MAC counts and live-footprint estimates."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.teil.ops import Contraction, Ewise
from repro.teil.program import Function, Statement
from repro.teil.types import TensorKind
from repro.utils import prod


def statement_macs(stmt: Statement, shapes: Dict[str, Tuple[int, ...]]) -> int:
    """Multiply-accumulate (or entry-wise op) count of one statement."""
    op = stmt.op
    if isinstance(op, Contraction):
        extents = op.index_extents(shapes)
        return prod(extents[i] for i in op.all_indices)
    if isinstance(op, Ewise):
        return prod(op.output_shape(shapes))
    raise TypeError(f"unknown op {type(op).__name__}")


def function_macs(fn: Function) -> int:
    """Total MAC count of a function."""
    shapes = fn.shapes()
    return sum(statement_macs(s, shapes) for s in fn.statements)


def live_ranges(fn: Function) -> Dict[str, Tuple[int, int]]:
    """Statement-granularity live range [def, last_use] for every tensor.

    Inputs are live from -1 (before the kernel), outputs to ``len(stmts)``
    (after it) — mirroring the virtual ``first``/``last`` statements of
    Sec. IV-F.
    """
    n = len(fn.statements)
    ranges: Dict[str, Tuple[int, int]] = {}
    for d in fn.decls.values():
        start = -1 if d.kind is TensorKind.INPUT else n
        ranges[d.name] = (start, -1 if d.kind is not TensorKind.INPUT else -1)
    first_def: Dict[str, int] = {d.name: -1 for d in fn.inputs()}
    last_use: Dict[str, int] = {}
    for i, s in enumerate(fn.statements):
        if s.target not in first_def:
            first_def[s.target] = i
        for o in s.operands:
            last_use[o] = i
    out: Dict[str, Tuple[int, int]] = {}
    for d in fn.decls.values():
        lo = first_def.get(d.name, n)
        hi = last_use.get(d.name, lo)
        if d.kind is TensorKind.OUTPUT:
            hi = n  # read back by the host after execution
        if d.kind is TensorKind.INPUT:
            lo = -1
        out[d.name] = (lo, hi)
    return out


def peak_live_bytes(fn: Function) -> int:
    """Peak simultaneous storage (bytes) at statement granularity."""
    ranges = live_ranges(fn)
    n = len(fn.statements)
    peak = 0
    for t in range(-1, n + 1):
        total = sum(
            fn.decls[name].n_bytes
            for name, (lo, hi) in ranges.items()
            if lo <= t <= hi
        )
        peak = max(peak, total)
    return peak


def macs_by_statement(fn: Function) -> List[Tuple[str, int]]:
    shapes = fn.shapes()
    return [(s.target, statement_macs(s, shapes)) for s in fn.statements]
